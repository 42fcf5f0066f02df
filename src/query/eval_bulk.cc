#include "query/eval_bulk.h"

#include <algorithm>
#include <iterator>
#include <map>

#include "pbn/packed.h"
#include "pbn/structural_join.h"
#include "query/cost_model.h"
#include "query/evaluator.h"
#include "query/value_pushdown.h"

namespace vpbn::query {

namespace {

using num::PackedPbnList;
using xml::NodeId;

/// The surviving instances of one type: ascending rows of its packed arena
/// (StoredDocument::PackedNodesOfType), or every row. Joins read the arena
/// at these rows in place, predicates mask them, and the result reads the
/// NodeIds aligned with them; no packed number is ever copied.
class Rows {
 public:
  static Rows All(size_t n) {
    Rows r;
    r.all_ = true;
    r.n_ = n;
    return r;
  }
  static Rows Of(std::vector<uint32_t> rows) {
    Rows r;
    r.n_ = rows.size();
    r.rows_ = std::move(rows);
    return r;
  }

  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  uint32_t row(size_t i) const {
    return all_ ? static_cast<uint32_t>(i) : rows_[i];
  }

  /// This selection as one side of a packed join over \p list.
  num::PackedRows Over(const PackedPbnList& list) const {
    return all_ ? num::PackedRows(list)
                : num::PackedRows(list, rows_.data(), rows_.size());
  }

  /// The entries whose \p mask byte equals \p want.
  Rows Keep(const std::vector<char>& mask, bool want = true) const {
    if (all_ && std::all_of(mask.begin(), mask.end(),
                            [&](char m) { return (m != 0) == want; })) {
      return *this;
    }
    std::vector<uint32_t> kept;
    for (size_t i = 0; i < n_; ++i) {
      if ((mask[i] != 0) == want) kept.push_back(row(i));
    }
    return Of(std::move(kept));
  }

  /// Adds \p other's rows (both ascending).
  void Unite(Rows other) {
    if (all_ || other.empty()) return;
    if (other.all_ || empty()) {
      *this = std::move(other);
      return;
    }
    std::vector<uint32_t> merged;
    merged.reserve(n_ + other.n_);
    std::set_union(rows_.begin(), rows_.end(), other.rows_.begin(),
                   other.rows_.end(), std::back_inserter(merged));
    *this = Of(std::move(merged));
  }

 private:
  bool all_ = false;
  size_t n_ = 0;
  std::vector<uint32_t> rows_;
};

/// Surviving rows per type, and whether the invisible document node is
/// still in the context (it is after a leading '//').
struct State {
  bool doc = false;
  std::map<dg::TypeId, Rows> types;
};

/// One predicate's truth value per entry of a type's selection.
using Mask = std::vector<char>;

bool TypeMatches(const dg::DataGuide& g, dg::TypeId t, const NodeTest& test) {
  return test.Matches(!g.IsTextType(t), g.label(t));
}

bool InFragment(const Path& path, bool top_level);

/// Predicates bulk evaluates as masks: existence paths in the fragment,
/// recognized value predicates (query/value_pushdown.h), @attr, and
/// and/or/not over those.
bool PredInFragment(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kPath:
      return InFragment(e.path, /*top_level=*/false);
    case Expr::Kind::kAttribute:
      return true;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      return PredInFragment(*e.lhs) && PredInFragment(*e.rhs);
    case Expr::Kind::kNot:
      return PredInFragment(*e.lhs);
    default: {
      ValuePred vp;
      return RecognizeValuePred(e, &vp);
    }
  }
}

/// Fragment test: child, descendant and '//' steps, plus parent, ancestor
/// and ancestor-or-self steps on the top-level path; predicates per
/// PredInFragment. Predicate paths stay downward, so each terminal
/// instance lies under exactly one instance of the context type, which is
/// what lets a semi-join mark the context rows a predicate holds for.
bool InFragment(const Path& path, bool top_level) {
  for (const Step& step : path.steps) {
    switch (step.axis) {
      case num::Axis::kChild:
      case num::Axis::kDescendant:
        break;
      case num::Axis::kDescendantOrSelf:
        // Only the '//'-style anonymous step (no predicates).
        if (step.test.kind != NodeTest::Kind::kAnyNode ||
            !step.predicates.empty()) {
          return false;
        }
        break;
      case num::Axis::kParent:
      case num::Axis::kAncestor:
      case num::Axis::kAncestorOrSelf:
        if (!top_level) return false;
        break;
      default:
        return false;
    }
    for (const auto& pred : step.predicates) {
      if (!PredInFragment(*pred)) return false;
    }
  }
  return !path.steps.empty();
}

/// Runs the packed structural join for one type pair and flushes its work
/// counters into the context. Pair indexes are positions in each side.
std::vector<num::JoinPair> Join(bool parent_only, const num::PackedRows& up,
                                const num::PackedRows& down,
                                ExecContext* ctx) {
  num::JoinCounters jc;
  std::vector<num::JoinPair> pairs =
      parent_only ? num::ParentChildJoin(up, down, &jc)
                  : num::AncestorDescendantJoin(up, down, &jc);
  if (ctx) {
    ctx->stats().join_pairs += pairs.size();
    ctx->stats().pbn_comparisons += jc.comparisons;
    ctx->stats().bytes_compared += jc.bytes_compared;
    ctx->stats().block_skips += jc.block_skips;
  }
  return pairs;
}

/// The rows of type \p to (a DataGuide child type of \p t with
/// \p child, else a descendant type) under the context rows \p sel of
/// \p t. Every instance of \p to lies under some instance of \p t, so a
/// full context selects every row without a join.
Rows Below(const storage::StoredDocument& stored, dg::TypeId t,
           const Rows& sel, dg::TypeId to, bool child, ExecContext* ctx) {
  const PackedPbnList& all = stored.PackedNodesOfType(to);
  if (sel.size() == stored.PackedNodesOfType(t).size()) {
    return Rows::All(all.size());
  }
  std::vector<num::JoinPair> pairs =
      Join(child, sel.Over(stored.PackedNodesOfType(t)), all, ctx);
  std::vector<uint32_t> rows;
  rows.reserve(pairs.size());
  for (const num::JoinPair& p : pairs) {
    rows.push_back(static_cast<uint32_t>(p.descendant_index));
  }
  return Rows::Of(std::move(rows));
}

/// The rows of type \p up (an ancestor type of \p t; its parent type with
/// \p parent) above the context rows \p sel of \p t: the same join with
/// the roles swapped. Instances of one type never nest, so each context
/// row has at most one ancestor of type \p up, and those ancestors come
/// out in document order as the context rows do; repeats are adjacent.
Rows Above(const storage::StoredDocument& stored, dg::TypeId t,
           const Rows& sel, dg::TypeId up, bool parent, ExecContext* ctx) {
  std::vector<num::JoinPair> pairs =
      Join(parent, stored.PackedNodesOfType(up),
           sel.Over(stored.PackedNodesOfType(t)), ctx);
  std::vector<uint32_t> rows;
  for (const num::JoinPair& p : pairs) {
    if (rows.empty() || rows.back() != p.ancestor_index) {
      rows.push_back(static_cast<uint32_t>(p.ancestor_index));
    }
  }
  return Rows::Of(std::move(rows));
}

/// Sets \p mask for the context rows \p sel of \p t that have a descendant
/// among \p below (rows of one descendant type).
void MarkAncestors(const storage::StoredDocument& stored, dg::TypeId t,
                   const Rows& sel, const num::PackedRows& below, Mask* mask,
                   ExecContext* ctx) {
  if (below.size == 0) return;
  for (const num::JoinPair& p :
       Join(/*parent_only=*/false, sel.Over(stored.PackedNodesOfType(t)),
            below, ctx)) {
    (*mask)[p.ancestor_index] = 1;
  }
}

/// Evaluates \p path from \p state, returning the surviving rows per type.
State EvalChain(const storage::StoredDocument& stored, const Path& path,
                State state, ExecContext* ctx);

/// kScanProbe: answers a [path op literal] predicate per context instance by
/// scanning its terminal-row range in the term column directly — no
/// matching-rows materialization. Whole 256-row blocks the zone maps rule
/// out are skipped, and the scan stops at the first hit. Chosen by the
/// cost model at high selectivity, where collecting every matching row
/// costs more than these early-exiting scans.
Mask ScanProbe(const storage::StoredDocument& stored, const ValuePred& vp,
               dg::TypeId t, const Rows& sel,
               const std::vector<dg::TypeId>& tts, ExecContext* ctx) {
  const idx::ValueIndex& vi = stored.value_index();
  const idx::Dictionary& dict = vi.dict();
  const PackedPbnList& context = stored.PackedNodesOfType(t);
  const bool string_eq = vp.op == CompareOp::kEq && !vp.lit.numeric;
  const uint32_t eq_term = string_eq ? dict.Find(vp.lit.text) : idx::kNoTerm;
  Mask mask(sel.size(), 0);
  uint64_t skips = 0;
  uint64_t tested = 0;
  for (size_t i = 0; i < sel.size(); ++i) {
    bool keep = false;
    for (dg::TypeId tt : tts) {
      if (string_eq && eq_term == idx::kNoTerm) break;  // literal not interned
      const idx::TypeColumn* col = vi.Column(tt);
      auto [first, last] = stored.TypeRangeWithin(tt, context[sel.row(i)]);
      size_t row = first;
      while (row < last && !keep) {
        const size_t b = row / idx::ColumnStats::kZoneBlockRows;
        const size_t block_end =
            std::min(last, (b + 1) * idx::ColumnStats::kZoneBlockRows);
        if (!ZoneBlockCanMatch(col->stats, b, vp.op, vp.lit, eq_term)) {
          ++skips;
          row = block_end;
          continue;
        }
        for (; row < block_end; ++row) {
          ++tested;
          if (TermMatches(dict, col->term_ids[row], vp.op, vp.lit)) {
            keep = true;
            break;
          }
        }
      }
      if (keep) break;
    }
    mask[i] = keep;
  }
  if (ctx != nullptr) {
    ctx->stats().value_index_lookups += sel.size() * tts.size();
    ctx->stats().value_index_postings += tested;
    ctx->stats().zone_map_skips += skips;
  }
  return mask;
}

/// One recognized value predicate over one type's selection.
///
/// Path comparisons take the cost model's strategy when every terminal
/// type has a value column. The default marks the context rows above the
/// terminal rows whose value matches: the memoized matching rows for a
/// covered type, a per-instance string scan for an uncovered one (nested
/// structure). Attribute predicates read the attribute column at each
/// context row; contains()/starts-with() on a path tests each context
/// instance's document-order-first terminal instance against a term bitmap
/// (XPath coerces a node set to its first node's value).
Mask ValueMask(const storage::StoredDocument& stored, const Expr* pred,
               const ValuePred& vp, dg::TypeId t, const Rows& sel,
               ExecContext* ctx) {
  const idx::ValueIndex& vi = stored.value_index();
  const dg::DataGuide& g = stored.dataguide();
  Mask mask(sel.size(), 0);
  switch (vp.kind) {
    case ValuePred::Kind::kAttrCompare:
    case ValuePred::Kind::kAttrString: {
      const bool is_compare = vp.kind == ValuePred::Kind::kAttrCompare;
      const idx::Dictionary& dict = vi.dict();
      const idx::AttrColumn* col = vi.Attr(t, vp.attr);
      std::shared_ptr<const std::vector<uint8_t>> bitmap;
      if (!is_compare) bitmap = TermBitmap(dict, vp.str_fn, vp.lit.text, ctx);
      for (size_t i = 0; i < sel.size(); ++i) {
        const uint32_t term =
            col != nullptr ? col->term_ids[sel.row(i)] : idx::kNoTerm;
        mask[i] = is_compare ? TermMatches(dict, term, vp.op, vp.lit)
                             : (term == idx::kNoTerm ? vp.lit.text.empty()
                                                     : (*bitmap)[term] != 0);
      }
      if (ctx != nullptr) ctx->stats().value_index_lookups += sel.size();
      return mask;
    }
    case ValuePred::Kind::kPathCompare: {
      auto tts = ChainTypes(g, vp.path, t, ctx);
      const bool covered =
          !tts->empty() &&
          std::all_of(tts->begin(), tts->end(), [&](dg::TypeId tt) {
            return vi.Column(tt) != nullptr;
          });
      if (covered &&
          CostModel(stored)
                  .ChoosePredStrategy(t, sel.size(), *tts, vp.op, vp.lit)
                  .strategy == PredStrategy::kScanProbe) {
        return ScanProbe(stored, vp, t, sel, *tts, ctx);
      }
      for (dg::TypeId tt : *tts) {
        const PackedPbnList& terminal = stored.PackedNodesOfType(tt);
        if (const idx::TypeColumn* col = vi.Column(tt)) {
          auto rows = MatchingRows(*col, pred, tt, vp.op, vp.lit, ctx);
          MarkAncestors(stored, t, sel,
                        num::PackedRows(terminal, rows->data(), rows->size()),
                        &mask, ctx);
          continue;
        }
        // Uncovered terminal type: scan every instance's assembled string
        // value.
        const std::vector<NodeId>& ids = stored.NodeIdsOfType(tt);
        std::vector<uint32_t> hits;
        for (uint32_t row = 0; row < ids.size(); ++row) {
          if (CompareValues(stored.doc().StringValue(ids[row]), vp.op,
                            vp.lit.text)) {
            hits.push_back(row);
          }
        }
        if (ctx != nullptr) ctx->stats().value_scan_fallbacks += ids.size();
        MarkAncestors(stored, t, sel,
                      num::PackedRows(terminal, hits.data(), hits.size()),
                      &mask, ctx);
      }
      return mask;
    }
    case ValuePred::Kind::kPathString: {
      auto tts = ChainTypes(g, vp.path, t, ctx);
      auto bitmap = TermBitmap(vi.dict(), vp.str_fn, vp.lit.text, ctx);
      const PackedPbnList& context = stored.PackedNodesOfType(t);
      for (size_t i = 0; i < sel.size(); ++i) {
        // Document-order-first terminal instance within this context
        // instance (the node the scan path's string coercion reads).
        const num::PackedPbnRef scope = context[sel.row(i)];
        dg::TypeId best_tt = dg::kNullType;
        size_t best_row = 0;
        num::PackedPbnRef best;
        for (dg::TypeId tt : *tts) {
          auto [first, last] = stored.TypeRangeWithin(tt, scope);
          if (first >= last) continue;
          num::PackedPbnRef candidate = stored.PackedNodesOfType(tt)[first];
          if (best_tt == dg::kNullType || candidate < best) {
            best = candidate;
            best_tt = tt;
            best_row = first;
          }
        }
        if (best_tt == dg::kNullType) {
          mask[i] = vp.lit.text.empty();  // empty node set coerces to ""
        } else if (const idx::TypeColumn* col = vi.Column(best_tt)) {
          mask[i] = (*bitmap)[col->term_ids[best_row]] != 0;
        } else {
          mask[i] = TermMatchesString(
              stored.doc().StringValue(
                  stored.NodeIdsOfType(best_tt)[best_row]),
              vp.str_fn, vp.lit.text);
          if (ctx != nullptr) ++ctx->stats().value_scan_fallbacks;
        }
      }
      if (ctx != nullptr) ctx->stats().value_index_lookups += sel.size();
      return mask;
    }
  }
  return mask;
}

/// A fragment predicate's mask over the selection \p sel of type \p t.
/// `and` and `or` evaluate their right side only on the entries the left
/// side leaves open, as the per-node evaluator short-circuits.
Mask PredMask(const storage::StoredDocument& stored, const Expr& pred,
              dg::TypeId t, const Rows& sel, ExecContext* ctx) {
  switch (pred.kind) {
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      Mask mask = PredMask(stored, *pred.lhs, t, sel, ctx);
      const bool open = pred.kind == Expr::Kind::kAnd;
      Mask rhs = PredMask(stored, *pred.rhs, t, sel.Keep(mask, open), ctx);
      size_t j = 0;
      for (char& m : mask) {
        if ((m != 0) == open) m = rhs[j++];
      }
      return mask;
    }
    case Expr::Kind::kNot: {
      Mask mask = PredMask(stored, *pred.lhs, t, sel, ctx);
      for (char& m : mask) m = !m;
      return mask;
    }
    case Expr::Kind::kAttribute: {
      // [@a] holds where the attribute is present with a non-empty value
      // (the per-node evaluator's string truthiness).
      const idx::ValueIndex& vi = stored.value_index();
      const idx::AttrColumn* col = vi.Attr(t, pred.str);
      const uint32_t empty = vi.dict().Find("");
      Mask mask(sel.size(), 0);
      for (size_t i = 0; col != nullptr && i < sel.size(); ++i) {
        const uint32_t term = col->term_ids[sel.row(i)];
        mask[i] = term != idx::kNoTerm && term != empty;
      }
      if (ctx != nullptr) ctx->stats().value_index_lookups += sel.size();
      return mask;
    }
    case Expr::Kind::kPath: {
      // Existence: run the chain from the context rows, then mark the
      // context rows above a terminal row.
      State anchor;
      anchor.types.emplace(t, sel);
      State terminal = EvalChain(stored, pred.path, std::move(anchor), ctx);
      Mask mask(sel.size(), 0);
      for (const auto& [tt, rows] : terminal.types) {
        MarkAncestors(stored, t, sel,
                      rows.Over(stored.PackedNodesOfType(tt)), &mask, ctx);
      }
      return mask;
    }
    default: {
      ValuePred vp;
      RecognizeValuePred(pred, &vp);  // InFragment admitted it
      return ValueMask(stored, &pred, vp, t, sel, ctx);
    }
  }
}

/// Rough work estimate for one predicate over \p n context rows of \p t,
/// used to order a step's predicates cheapest first: attribute masks touch
/// only the context rows; indexed path comparisons touch their matching
/// rows, estimated from the column histograms so that ordering
/// materializes nothing; everything else streams over the terminal types'
/// full instance lists.
uint64_t PredCost(const storage::StoredDocument& stored, const Expr& pred,
                  dg::TypeId t, size_t n, ExecContext* ctx) {
  const dg::DataGuide& g = stored.dataguide();
  auto count = [&](dg::TypeId tt) { return stored.NodeIdsOfType(tt).size(); };
  switch (pred.kind) {
    case Expr::Kind::kAttribute:
      return n;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      return PredCost(stored, *pred.lhs, t, n, ctx) +
             PredCost(stored, *pred.rhs, t, n, ctx);
    case Expr::Kind::kNot:
      return PredCost(stored, *pred.lhs, t, n, ctx);
    case Expr::Kind::kPath: {
      uint64_t total = 0;
      for (dg::TypeId tt : ResolveChainTypes(g, t, pred.path)) {
        total += count(tt);
      }
      return total;
    }
    default:
      break;
  }
  ValuePred vp;
  RecognizeValuePred(pred, &vp);
  if (vp.kind == ValuePred::Kind::kAttrCompare ||
      vp.kind == ValuePred::Kind::kAttrString) {
    return n;
  }
  uint64_t total = 0;
  for (dg::TypeId tt : *ChainTypes(g, vp.path, t, ctx)) {
    const idx::TypeColumn* col = stored.value_index().Column(tt);
    if (vp.kind == ValuePred::Kind::kPathString) {
      total += col != nullptr ? n : count(tt);
    } else if (col != nullptr) {
      total += static_cast<uint64_t>(
          CardinalityEstimator::ColumnSelectivity(*col, vp.op, vp.lit) *
          static_cast<double>(col->stats.row_count));
    } else {
      total += count(tt);
    }
  }
  return total;
}

/// Applies one step's predicates to every type's selection, cheapest
/// first. Each predicate masks one type's rows at a time; types whose
/// selection empties drop out. Non-positional predicates filter nodes
/// independently, so their order changes the work, never the result.
State ApplyPredicates(const storage::StoredDocument& stored, const Step& step,
                      State state, ExecContext* ctx) {
  std::vector<std::pair<uint64_t, const Expr*>> preds;
  for (const auto& pred : step.predicates) {
    uint64_t cost = 0;
    if (step.predicates.size() > 1) {
      for (const auto& [t, sel] : state.types) {
        cost += PredCost(stored, *pred, t, sel.size(), ctx);
      }
    }
    preds.emplace_back(cost, pred.get());
  }
  std::stable_sort(preds.begin(), preds.end(), [](const auto& a,
                                                  const auto& b) {
    return a.first < b.first;
  });
  for (const auto& [cost, pred] : preds) {
    for (auto it = state.types.begin(); it != state.types.end();) {
      Rows& sel = it->second;
      sel = sel.Keep(PredMask(stored, *pred, it->first, sel, ctx));
      it = sel.empty() ? state.types.erase(it) : std::next(it);
    }
  }
  return state;
}

State EvalChain(const storage::StoredDocument& stored, const Path& path,
                State state, ExecContext* ctx) {
  const dg::DataGuide& g = stored.dataguide();
  for (const Step& step : path.steps) {
    State next;
    auto add = [&](dg::TypeId nt, Rows rows) {
      if (rows.empty()) return;
      if (ctx) ctx->stats().nodes_scanned += rows.size();
      next.types[nt].Unite(std::move(rows));
    };
    auto all = [&](dg::TypeId nt) {
      return Rows::All(stored.PackedNodesOfType(nt).size());
    };
    if (state.doc) {
      // Steps from the document node. It has no parent or ancestors.
      switch (step.axis) {
        case num::Axis::kChild:
          for (dg::TypeId rt : g.roots()) {
            if (TypeMatches(g, rt, step.test)) add(rt, all(rt));
          }
          break;
        case num::Axis::kDescendant:
        case num::Axis::kDescendantOrSelf:
          // '//' keeps the document node itself in the context.
          next.doc = step.axis == num::Axis::kDescendantOrSelf;
          for (dg::TypeId t = 0; t < g.num_types(); ++t) {
            if (TypeMatches(g, t, step.test)) add(t, all(t));
          }
          break;
        default:
          break;
      }
    }
    for (auto& [t, sel] : state.types) {
      switch (step.axis) {
        case num::Axis::kChild:
          for (dg::TypeId ct : g.children(t)) {
            if (TypeMatches(g, ct, step.test)) {
              add(ct, Below(stored, t, sel, ct, /*child=*/true, ctx));
            }
          }
          break;
        case num::Axis::kDescendant:
        case num::Axis::kDescendantOrSelf:
          for (dg::TypeId dt : g.DescendantTypes(t)) {
            if (TypeMatches(g, dt, step.test)) {
              add(dt, Below(stored, t, sel, dt, /*child=*/false, ctx));
            }
          }
          // Only the anonymous '//' step is in the fragment: self matches.
          if (step.axis == num::Axis::kDescendantOrSelf) add(t, std::move(sel));
          break;
        case num::Axis::kParent: {
          const dg::TypeId pt = g.parent(t);
          if (pt != dg::kNullType && TypeMatches(g, pt, step.test)) {
            add(pt, Above(stored, t, sel, pt, /*parent=*/true, ctx));
          }
          break;
        }
        case num::Axis::kAncestor:
        case num::Axis::kAncestorOrSelf:
          for (dg::TypeId at = g.parent(t); at != dg::kNullType;
               at = g.parent(at)) {
            if (TypeMatches(g, at, step.test)) {
              add(at, Above(stored, t, sel, at, /*parent=*/false, ctx));
            }
          }
          if (step.axis == num::Axis::kAncestorOrSelf &&
              TypeMatches(g, t, step.test)) {
            add(t, std::move(sel));
          }
          break;
        default:
          break;  // outside the fragment
      }
    }
    state = ApplyPredicates(stored, step, std::move(next), ctx);
  }
  return state;
}

/// The surviving rows as NodeIds in document order. Each type's NodeIds
/// are read at its rows from the column aligned with its arena. The
/// per-type runs are then merged on their packed numbers: every run is
/// sorted and no node belongs to two types, so a heap over the run heads
/// emits document order in O(n log k) for k runs (a `//*` result has one
/// run per type).
std::vector<NodeId> InDocumentOrder(const storage::StoredDocument& stored,
                                    const State& state) {
  struct Run {
    const PackedPbnList* numbers;
    const std::vector<NodeId>* ids;
    const Rows* rows;
  };
  std::vector<Run> runs;
  size_t total = 0;
  for (const auto& [t, sel] : state.types) {
    runs.push_back({&stored.PackedNodesOfType(t), &stored.NodeIdsOfType(t),
                    &sel});
    total += sel.size();
  }
  std::vector<NodeId> out;
  out.reserve(total);
  if (runs.size() == 1) {
    for (size_t i = 0; i < total; ++i) {
      out.push_back((*runs[0].ids)[runs[0].rows->row(i)]);
    }
    return out;
  }

  struct Head {
    num::PackedPbnRef number;
    uint32_t run;
    uint32_t pos;
  };
  // std::*_heap keep the greatest element on top; invert for a min-heap.
  auto after = [](const Head& a, const Head& b) { return b.number < a.number; };
  std::vector<Head> heap;
  heap.reserve(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    heap.push_back(
        {(*runs[r].numbers)[runs[r].rows->row(0)], static_cast<uint32_t>(r),
         0});
  }
  std::make_heap(heap.begin(), heap.end(), after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Head& h = heap.back();
    const Run& run = runs[h.run];
    out.push_back((*run.ids)[run.rows->row(h.pos)]);
    if (++h.pos < run.rows->size()) {
      h.number = (*run.numbers)[run.rows->row(h.pos)];
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
  return out;
}

}  // namespace

bool InBulkFragment(const Path& path) {
  return InFragment(path, /*top_level=*/true);
}

Result<std::vector<NodeId>> EvalBulk(const storage::StoredDocument& stored,
                                     const Path& path, ExecContext* ctx) {
  if (!InBulkFragment(path)) {
    return Status::NotImplemented(
        "bulk evaluation supports child, descendant, parent and ancestor "
        "steps with existence, value, attribute and boolean predicates "
        "only");
  }
  State start;
  start.doc = true;
  State result = EvalChain(stored, path, std::move(start), ctx);
  return InDocumentOrder(stored, result);
}

Result<std::vector<NodeId>> EvalBulk(const storage::StoredDocument& stored,
                                     std::string_view path_text) {
  VPBN_ASSIGN_OR_RETURN(Path path, ParsePath(path_text));
  return EvalBulk(stored, path);
}

}  // namespace vpbn::query
