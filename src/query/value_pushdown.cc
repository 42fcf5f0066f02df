#include "query/value_pushdown.h"

#include <algorithm>

#include "query/evaluator.h"

namespace vpbn::query {

namespace {

CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // = and != are symmetric
  }
}

bool IsLiteral(const Expr& e) {
  return e.kind == Expr::Kind::kString || e.kind == Expr::Kind::kNumber;
}

}  // namespace

ValueLiteral MakeLiteral(const Expr& literal) {
  ValueLiteral out;
  if (literal.kind == Expr::Kind::kString) {
    out.text = literal.str;
  } else {
    // Same rendering as evaluator.h's number-to-string coercion; comparing
    // against anything else would diverge from the scan path.
    if (literal.num == static_cast<int64_t>(literal.num)) {
      out.text = std::to_string(static_cast<int64_t>(literal.num));
    } else {
      out.text = std::to_string(literal.num);
    }
  }
  out.numeric = ToNumber(out.text, &out.num);
  return out;
}

bool RecognizeValuePred(const Expr& e, ValuePred* out) {
  switch (e.kind) {
    case Expr::Kind::kCompare: {
      const Expr* side = nullptr;
      const Expr* lit = nullptr;
      CompareOp op = e.op;
      if (IsLiteral(*e.rhs)) {
        side = e.lhs.get();
        lit = e.rhs.get();
      } else if (IsLiteral(*e.lhs)) {
        // literal op path: existential semantics make this `path mirror(op)
        // literal`.
        side = e.rhs.get();
        lit = e.lhs.get();
        op = MirrorOp(e.op);
      } else {
        return false;
      }
      if (side->kind == Expr::Kind::kPath) {
        if (!IsPredicateFreeChain(side->path)) return false;
        out->kind = ValuePred::Kind::kPathCompare;
        out->path = &side->path;
      } else if (side->kind == Expr::Kind::kAttribute) {
        out->kind = ValuePred::Kind::kAttrCompare;
        out->attr = side->str;
      } else {
        return false;
      }
      out->op = op;
      out->lit = MakeLiteral(*lit);
      return true;
    }
    case Expr::Kind::kContains:
    case Expr::Kind::kStartsWith: {
      if (!IsLiteral(*e.rhs)) return false;
      if (e.lhs->kind == Expr::Kind::kPath) {
        if (!IsPredicateFreeChain(e.lhs->path)) return false;
        out->kind = ValuePred::Kind::kPathString;
        out->path = &e.lhs->path;
      } else if (e.lhs->kind == Expr::Kind::kAttribute) {
        out->kind = ValuePred::Kind::kAttrString;
        out->attr = e.lhs->str;
      } else {
        return false;
      }
      out->str_fn = e.kind;
      out->lit = MakeLiteral(*e.rhs);
      return true;
    }
    default:
      return false;
  }
}

bool TermMatches(const idx::Dictionary& dict, uint32_t term, CompareOp op,
                 const ValueLiteral& lit) {
  if (term == idx::kNoTerm) return false;
  if (dict.numeric(term) && lit.numeric) {
    return CompareNumbers(dict.number(term), op, lit.num);
  }
  switch (op) {
    case CompareOp::kEq:
      return dict.term(term) == lit.text;
    case CompareOp::kNe:
      return dict.term(term) != lit.text;
    default:
      return false;  // relational with a non-numeric side never matches
  }
}

std::vector<uint32_t> CollectMatchingRows(const idx::TypeColumn& col,
                                          CompareOp op,
                                          const ValueLiteral& lit,
                                          ExecContext* ctx) {
  const idx::Dictionary& dict = *col.dict;
  const std::vector<uint32_t>& nr = col.numeric_rows;
  auto num_of = [&](uint32_t row) { return dict.number(col.term_ids[row]); };
  auto lower = [&](double v) {
    return std::lower_bound(
        nr.begin(), nr.end(), v,
        [&](uint32_t r, double x) { return num_of(r) < x; });
  };
  auto upper = [&](double v) {
    return std::upper_bound(
        nr.begin(), nr.end(), v,
        [&](double x, uint32_t r) { return x < num_of(r); });
  };

  std::vector<uint32_t> rows;
  uint64_t lookups = 1;
  switch (op) {
    case CompareOp::kEq:
      if (lit.numeric) {
        // (value, row)-sorted, so the equal-value slice is row-ascending.
        // A string that equals a numeric term byte-for-byte parses too, so
        // the slice covers every match the string fallback could add.
        rows.assign(lower(lit.num), upper(lit.num));
        lookups = 2;
      } else {
        uint32_t term = dict.Find(lit.text);
        if (term != idx::kNoTerm) {
          auto it = col.postings.find(term);
          if (it != col.postings.end()) rows = it->second;
        }
      }
      break;
    case CompareOp::kNe:
      // No sublinear shape; scan the term column — one O(1) interned test
      // per row, no string assembly.
      for (uint32_t row = 0; row < col.term_ids.size(); ++row) {
        if (TermMatches(dict, col.term_ids[row], op, lit)) rows.push_back(row);
      }
      break;
    default: {
      if (!lit.numeric) break;  // relational vs non-number: empty
      auto b = nr.begin();
      auto e = nr.end();
      switch (op) {
        case CompareOp::kLt:
          e = lower(lit.num);
          break;
        case CompareOp::kLe:
          e = upper(lit.num);
          break;
        case CompareOp::kGt:
          b = upper(lit.num);
          break;
        default:  // kGe
          b = lower(lit.num);
          break;
      }
      rows.assign(b, e);
      std::sort(rows.begin(), rows.end());
      lookups = 2;
      break;
    }
  }
  if (ctx != nullptr) {
    ctx->stats().value_index_lookups += lookups;
    ctx->stats().value_index_postings += rows.size();
  }
  return rows;
}

std::shared_ptr<const std::vector<uint32_t>> MatchingRows(
    const idx::TypeColumn& col, const Expr* pred, dg::TypeId t, CompareOp op,
    const ValueLiteral& lit, ExecContext* ctx) {
  if (ctx == nullptr) {
    return std::make_shared<const std::vector<uint32_t>>(
        CollectMatchingRows(col, op, lit, nullptr));
  }
  return ctx->Cached<std::vector<uint32_t>>(
      ExecContext::MemoKey('r', pred, t),
      [&] { return CollectMatchingRows(col, op, lit, ctx); });
}

std::vector<dg::TypeId> ResolveChainTypes(const dg::DataGuide& g,
                                          dg::TypeId context,
                                          const Path& path) {
  std::vector<dg::TypeId> frontier{context};
  std::vector<char> seen;
  for (const Step& step : path.steps) {
    seen.assign(g.num_types(), 0);
    std::vector<dg::TypeId> next;
    auto add = [&](dg::TypeId t) {
      if (!seen[t]) {
        seen[t] = 1;
        next.push_back(t);
      }
    };
    for (dg::TypeId t : frontier) {
      switch (step.axis) {
        case num::Axis::kChild:
          for (dg::TypeId c : g.children(t)) {
            if (step.test.Matches(!g.IsTextType(c), g.label(c))) add(c);
          }
          break;
        case num::Axis::kDescendant:
          for (dg::TypeId d : g.DescendantTypes(t)) {
            if (step.test.Matches(!g.IsTextType(d), g.label(d))) add(d);
          }
          break;
        case num::Axis::kDescendantOrSelf:
          // IsPredicateFreeChain admits only the anonymous '//' form, which
          // matches every node: expand the frontier in place. The grammar
          // cannot end a path with '//', so self never survives to the
          // terminal set.
          add(t);
          for (dg::TypeId d : g.DescendantTypes(t)) add(d);
          break;
        default:
          break;  // unreachable: IsPredicateFreeChain screens axes
      }
    }
    frontier = std::move(next);
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

std::shared_ptr<const std::vector<dg::TypeId>> ChainTypes(
    const dg::DataGuide& g, const Path* path, dg::TypeId context,
    ExecContext* ctx) {
  if (ctx == nullptr) {
    return std::make_shared<const std::vector<dg::TypeId>>(
        ResolveChainTypes(g, context, *path));
  }
  return ctx->Cached<std::vector<dg::TypeId>>(
      ExecContext::MemoKey('c', path, context),
      [&] { return ResolveChainTypes(g, context, *path); });
}

std::shared_ptr<const std::vector<uint8_t>> TermBitmap(
    const idx::Dictionary& dict, Expr::Kind fn, std::string_view needle,
    ExecContext* ctx) {
  auto build = [&] {
    std::vector<uint8_t> bits(dict.size(), 0);
    for (uint32_t t = 0; t < dict.size(); ++t) {
      bits[t] = TermMatchesString(dict.term(t), fn, needle) ? 1 : 0;
    }
    return bits;
  };
  if (ctx == nullptr) {
    return std::make_shared<const std::vector<uint8_t>>(build());
  }
  std::string key =
      ExecContext::MemoKey('b', &dict, static_cast<uint32_t>(fn));
  key += needle;
  return ctx->Cached<std::vector<uint8_t>>(key, build);
}

}  // namespace vpbn::query
