#include "query/cardinality.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace vpbn::query {

double CardinalityEstimator::ColumnSelectivity(const idx::TypeColumn& col,
                                               CompareOp op,
                                               const ValueLiteral& lit) {
  const idx::ColumnStats& s = col.stats;
  if (s.row_count == 0) return 0;
  const double n = static_cast<double>(s.row_count);
  switch (op) {
    case CompareOp::kEq:
      if (lit.numeric) {
        // The numeric-rows slice covers every match (a string that equals a
        // numeric term byte-for-byte parses too — see CollectMatchingRows).
        return std::min(1.0, s.EstimateEqRows(lit.num) / n);
      } else {
        // String equality: the postings size is exact and O(1).
        uint32_t term = col.dict->Find(lit.text);
        if (term == idx::kNoTerm) return 0;
        auto it = col.postings.find(term);
        if (it == col.postings.end()) return 0;
        return std::min(1.0, static_cast<double>(it->second.size()) / n);
      }
    case CompareOp::kNe:
      return 1.0 - ColumnSelectivity(col, CompareOp::kEq, lit);
    default:
      break;
  }
  // Relational: numeric rows only; a non-numeric literal matches nothing.
  if (!lit.numeric || std::isnan(lit.num)) return 0;
  const double numeric = static_cast<double>(s.numeric_count);
  double rows = 0;
  switch (op) {
    case CompareOp::kLt:
      rows = s.EstimateRowsBelow(lit.num, /*inclusive=*/false);
      break;
    case CompareOp::kLe:
      rows = s.EstimateRowsBelow(lit.num, /*inclusive=*/true);
      break;
    case CompareOp::kGt:
      rows = numeric - s.EstimateRowsBelow(lit.num, /*inclusive=*/true);
      break;
    default:  // kGe
      rows = numeric - s.EstimateRowsBelow(lit.num, /*inclusive=*/false);
      break;
  }
  return std::clamp(rows / n, 0.0, 1.0);
}

double CardinalityEstimator::EstimateMatchingRows(dg::TypeId tt, CompareOp op,
                                                  const ValueLiteral& lit)
    const {
  const double count = TypeCount(tt);
  const idx::TypeColumn* col = stored_->value_index().Column(tt);
  if (col == nullptr) return count * kDefaultSelectivity;
  return count * ColumnSelectivity(*col, op, lit);
}

double CardinalityEstimator::PredSurvival(dg::TypeId context,
                                          const Expr& pred) const {
  const dg::DataGuide& g = stored_->dataguide();
  const double n_ctx = std::max(1.0, TypeCount(context));
  switch (pred.kind) {
    case Expr::Kind::kAnd:
      return PredSurvival(context, *pred.lhs) *
             PredSurvival(context, *pred.rhs);
    case Expr::Kind::kOr: {
      double a = PredSurvival(context, *pred.lhs);
      double b = PredSurvival(context, *pred.rhs);
      return a + b - a * b;
    }
    case Expr::Kind::kNot:
      return 1.0 - PredSurvival(context, *pred.lhs);
    case Expr::Kind::kPath: {
      // Existence chain: a context instance survives iff its subtree holds
      // at least one terminal instance. With avg = terminals per context,
      // min(1, avg) is the (independence-free) upper-bound estimate.
      double terminals = 0;
      for (dg::TypeId tt : ResolveChainTypes(g, context, pred.path)) {
        terminals += TypeCount(tt);
      }
      return std::min(1.0, terminals / n_ctx);
    }
    default:
      break;
  }
  ValuePred vp;
  if (!RecognizeValuePred(pred, &vp)) return kDefaultSelectivity;
  switch (vp.kind) {
    case ValuePred::Kind::kPathCompare: {
      // Survive iff any terminal instance in the subtree matches:
      // 1 - prod_tt (1 - sel_tt)^(count(tt)/count(t)).
      double fail_all = 1.0;
      for (dg::TypeId tt : ResolveChainTypes(g, context, *vp.path)) {
        const idx::TypeColumn* col = stored_->value_index().Column(tt);
        double sel = col != nullptr
                         ? ColumnSelectivity(*col, vp.op, vp.lit)
                         : kDefaultSelectivity;
        double avg = TypeCount(tt) / n_ctx;
        fail_all *= std::pow(std::clamp(1.0 - sel, 0.0, 1.0), avg);
      }
      return std::clamp(1.0 - fail_all, 0.0, 1.0);
    }
    case ValuePred::Kind::kAttrCompare:
      // Attribute columns carry no statistics; shape-based defaults.
      switch (vp.op) {
        case CompareOp::kEq:
          return 0.1;
        case CompareOp::kNe:
          return 0.9;
        default:
          return kDefaultSelectivity;
      }
    case ValuePred::Kind::kPathString:
    case ValuePred::Kind::kAttrString:
      return kDefaultSelectivity;
  }
  return kDefaultSelectivity;
}

std::vector<CardinalityEstimator::StepEstimate>
CardinalityEstimator::EstimatePath(const Path& path) const {
  const dg::DataGuide& g = stored_->dataguide();
  std::vector<StepEstimate> out;
  out.reserve(path.steps.size());
  // Estimated surviving instances per frontier type; starts at the
  // document node.
  std::map<dg::TypeId, double> frontier;
  bool doc_node = true;

  auto fraction_of = [&](dg::TypeId t, double est) {
    double count = TypeCount(t);
    return count > 0 ? std::min(1.0, est / count) : 0.0;
  };

  for (const Step& step : path.steps) {
    StepEstimate est;
    if (step.axis == num::Axis::kDescendantOrSelf &&
        step.test.kind == NodeTest::Kind::kAnyNode &&
        step.predicates.empty()) {
      // The '//' anonymous step: extend every frontier type with its
      // descendants, scaled by the surviving fraction of the context type
      // (mirrors the bulk evaluator's type-frontier fold).
      std::map<dg::TypeId, double> next = frontier;
      if (doc_node) {
        next.clear();
        for (dg::TypeId t = 0; t < g.num_types(); ++t) {
          next[t] = TypeCount(t);
        }
        doc_node = false;
      } else {
        for (const auto& [t, c] : frontier) {
          double frac = fraction_of(t, c);
          for (dg::TypeId dt : g.DescendantTypes(t)) {
            double add = TypeCount(dt) * frac;
            double& slot = next[dt];
            slot = std::min(TypeCount(dt), slot + add);
          }
        }
      }
      frontier = std::move(next);
      for (const auto& [t, c] : frontier) {
        est.frontier.emplace_back(t, c);
        est.rows += c;
      }
      out.push_back(std::move(est));
      continue;
    }

    std::map<dg::TypeId, double> next;
    auto add = [&](dg::TypeId nt, double c) {
      double& slot = next[nt];
      slot = std::min(TypeCount(nt), slot + c);
    };
    if (doc_node) {
      if (step.axis == num::Axis::kChild) {
        for (dg::TypeId rt : g.roots()) {
          if (step.test.Matches(!g.IsTextType(rt), g.label(rt))) {
            add(rt, TypeCount(rt));
          }
        }
      } else {
        for (dg::TypeId t = 0; t < g.num_types(); ++t) {
          if (step.test.Matches(!g.IsTextType(t), g.label(t))) {
            add(t, TypeCount(t));
          }
        }
      }
      doc_node = false;
    } else {
      for (const auto& [t, c] : frontier) {
        double frac = fraction_of(t, c);
        std::vector<dg::TypeId> candidates = step.axis == num::Axis::kChild
                                                 ? g.children(t)
                                                 : g.DescendantTypes(t);
        for (dg::TypeId nt : candidates) {
          if (!step.test.Matches(!g.IsTextType(nt), g.label(nt))) continue;
          add(nt, TypeCount(nt) * frac);
        }
      }
    }
    for (const auto& pred : step.predicates) {
      for (auto& [nt, c] : next) {
        c *= PredSurvival(nt, *pred);
      }
    }
    frontier = std::move(next);
    for (const auto& [t, c] : frontier) {
      est.frontier.emplace_back(t, c);
      est.rows += c;
    }
    out.push_back(std::move(est));
  }
  return out;
}

double CardinalityEstimator::EstimateResultRows(const Path& path) const {
  std::vector<StepEstimate> steps = EstimatePath(path);
  return steps.empty() ? 0 : steps.back().rows;
}

}  // namespace vpbn::query
