#include "query/eval_bulk.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/parallel.h"
#include "pbn/packed.h"
#include "pbn/structural_join.h"
#include "query/cost_model.h"
#include "query/evaluator.h"
#include "query/value_pushdown.h"

namespace vpbn::query {

namespace {

using num::PackedPbnList;
using xml::NodeId;

/// Surviving instances per type. The lists stay packed (one arena per
/// type-list, pbn/codec.h ordered encoding) end to end: joins, semi-joins
/// and merges all run over arena bytes, and only the final result maps
/// rows to NodeIds.
using State = std::map<dg::TypeId, PackedPbnList>;

/// Per-type predicate filtering fans out on the pool only when the
/// surviving type count reaches this (each task runs a whole relative-chain
/// evaluation, so even small counts amortize).
constexpr size_t kParallelPredicateCutoff = 2;

common::ThreadPool* PoolOf(ExecContext* ctx) {
  return ctx != nullptr ? ctx->pool() : nullptr;
}

bool TypeMatches(const dg::DataGuide& g, dg::TypeId t, const NodeTest& test) {
  return test.Matches(!g.IsTextType(t), g.label(t));
}

/// Fragment test: child/descendant chains, name-ish tests, predicates that
/// are existence chains of the same shape or recognized value predicates
/// ([path op literal], [@attr op literal], contains()/starts-with() — see
/// query/value_pushdown.h).
bool InFragment(const Path& path) {
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const Step& step = path.steps[i];
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
      default:
        return false;
    }
    for (const auto& pred : step.predicates) {
      if (pred->kind == Expr::Kind::kPath) {
        if (!InFragment(pred->path)) return false;
        continue;
      }
      ValuePred vp;
      if (!RecognizeValuePred(*pred, &vp)) return false;
    }
  }
  return !path.steps.empty();
}

/// Runs the packed structural join for one step edge and flushes its work
/// counters into the context.
std::vector<num::JoinPair> Join(num::Axis axis, const PackedPbnList& ancestors,
                                const PackedPbnList& descendants,
                                ExecContext* ctx) {
  num::JoinCounters jc;
  std::vector<num::JoinPair> pairs =
      axis == num::Axis::kChild
          ? num::ParentChildJoin(ancestors, descendants, PoolOf(ctx), &jc)
          : num::AncestorDescendantJoin(ancestors, descendants, PoolOf(ctx),
                                        &jc);
  if (ctx) {
    ctx->CountJoinPairs(pairs.size());
    ctx->CountComparisons(jc.comparisons, jc.bytes_compared);
    ctx->CountBlockSkips(jc.block_skips);
  }
  return pairs;
}

/// Retains the context instances that have at least one descendant in
/// `witnesses` (all witness types are descendants of the context type, so
/// the ancestor side of the join identifies survivors).
PackedPbnList SemiJoinAncestors(const PackedPbnList& context,
                                const PackedPbnList& witnesses,
                                ExecContext* ctx) {
  std::vector<num::JoinPair> pairs =
      Join(num::Axis::kDescendant, context, witnesses, ctx);
  std::vector<bool> keep(context.size(), false);
  for (const num::JoinPair& p : pairs) keep[p.ancestor_index] = true;
  PackedPbnList out;
  for (size_t i = 0; i < context.size(); ++i) {
    if (keep[i]) out.Append(context[i]);
  }
  return out;
}

/// Evaluates `path` starting from `state` (document node when
/// `from_document` is set), returning the surviving per-type lists.
State EvalChain(const storage::StoredDocument& stored, const Path& path,
                size_t first_step, State state, bool from_document,
                ExecContext* ctx);

/// kScanProbe: answers a [path op literal] predicate per context instance by
/// scanning its terminal-row range in the term column directly — no
/// matching-rows materialization, no witness sort. Whole 256-row blocks the
/// zone maps rule out are skipped, and the scan stops at the first hit.
/// Chosen by the cost model at high selectivity, where the witness path's
/// global sort alone costs more than these early-exiting scans.
PackedPbnList PredScanProbe(const storage::StoredDocument& stored,
                            const ValuePred& vp,
                            const std::vector<dg::TypeId>& tts,
                            const PackedPbnList& list, ExecContext* ctx) {
  const idx::ValueIndex& vi = stored.value_index();
  const idx::Dictionary& dict = vi.dict();
  const bool string_eq = vp.op == CompareOp::kEq && !vp.lit.numeric;
  const uint32_t eq_term = string_eq ? dict.Find(vp.lit.text) : idx::kNoTerm;
  PackedPbnList out;
  uint64_t skips = 0;
  uint64_t tested = 0;
  for (size_t i = 0; i < list.size(); ++i) {
    bool keep = false;
    for (dg::TypeId tt : tts) {
      if (string_eq && eq_term == idx::kNoTerm) break;  // literal not interned
      const idx::TypeColumn* col = vi.Column(tt);
      auto [first, last] = stored.TypeRangeWithin(tt, list[i]);
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
    if (keep) out.Append(list[i]);
  }
  if (ctx != nullptr) {
    ctx->CountValueIndexLookups(list.size() * tts.size());
    ctx->CountValueIndexPostings(tested);
    ctx->CountZoneMapSkips(skips);
  }
  return out;
}

/// kRowsProbe: answers the predicate per context instance by probing the
/// (memoized) sorted matching-rows list against the context's terminal-row
/// range. Contexts arrive in ascending document order, so the probe keeps a
/// monotone cursor over the rows list and skips whole 256-entry blocks on
/// their last entry (the block's implicit max) — the postings-block
/// counterpart of the value zone maps. Chosen for small contexts, where
/// materializing packed witnesses for every matching row would dominate.
PackedPbnList PredRowsProbe(const storage::StoredDocument& stored,
                            const Expr* pred, const ValuePred& vp,
                            const std::vector<dg::TypeId>& tts,
                            const PackedPbnList& list, ExecContext* ctx) {
  const idx::ValueIndex& vi = stored.value_index();
  std::vector<bool> keep(list.size(), false);
  uint64_t skips = 0;
  for (dg::TypeId tt : tts) {
    const idx::TypeColumn* col = vi.Column(tt);
    auto rows = MatchingRows(*col, pred, tt, vp.op, vp.lit, ctx);
    if (rows->empty()) continue;
    const size_t n = rows->size();
    const size_t nblocks =
        (n + idx::ColumnStats::kZoneBlockRows - 1) /
        idx::ColumnStats::kZoneBlockRows;
    size_t blk = 0;
    for (size_t i = 0; i < list.size(); ++i) {
      if (keep[i]) continue;
      auto [first, last] = stored.TypeRangeWithin(tt, list[i]);
      if (first >= last) continue;
      // Range starts are non-decreasing (nested same-type contexts start
      // no earlier than their ancestors), so blocks left behind are left
      // behind for good.
      while (blk < nblocks) {
        const size_t tail =
            std::min(n, (blk + 1) * idx::ColumnStats::kZoneBlockRows) - 1;
        if ((*rows)[tail] < first) {
          ++blk;
          ++skips;
        } else {
          break;
        }
      }
      if (blk == nblocks) break;
      auto it = std::lower_bound(
          rows->begin() + blk * idx::ColumnStats::kZoneBlockRows, rows->end(),
          static_cast<uint32_t>(first));
      if (it != rows->end() && *it < last) keep[i] = true;
    }
  }
  PackedPbnList out;
  for (size_t i = 0; i < list.size(); ++i) {
    if (keep[i]) out.Append(list[i]);
  }
  if (ctx != nullptr) {
    ctx->CountValueIndexLookups(list.size() * tts.size());
    ctx->CountZoneMapSkips(skips);
  }
  return out;
}

/// Applies one recognized value predicate to one type's surviving list.
///
/// Path-compare predicates pick a strategy with the cost model when every
/// terminal type has a value column; otherwise they collect witness
/// instances from the terminal types' dictionary postings / numeric slices
/// (per-node string scan where a type has no column) and semi-join them
/// against the context. Attribute predicates mask the context list with
/// per-row term tests; contains()/starts-with() on a path tests each
/// context instance's document-order-first terminal instance against a
/// term bitmap (XPath coerces a node set to its first node's value).
PackedPbnList ApplyValuePred(const storage::StoredDocument& stored,
                             const Expr* pred, const ValuePred& vp,
                             dg::TypeId t, const PackedPbnList& list,
                             ExecContext* ctx) {
  const idx::ValueIndex& vi = stored.value_index();
  const dg::DataGuide& g = stored.dataguide();
  PackedPbnList out;
  switch (vp.kind) {
    case ValuePred::Kind::kAttrCompare:
    case ValuePred::Kind::kAttrString: {
      const bool is_compare = vp.kind == ValuePred::Kind::kAttrCompare;
      const idx::Dictionary& dict = vi.dict();
      const idx::AttrColumn* col = vi.Attr(t, vp.attr);
      std::shared_ptr<const std::vector<uint8_t>> bitmap;
      if (!is_compare) bitmap = TermBitmap(dict, vp.str_fn, vp.lit.text, ctx);
      const num::PackedPbnList& full = stored.PackedNodesOfType(t);
      for (size_t i = 0; i < list.size(); ++i) {
        // The surviving instance's row in the full type list (exact hit).
        size_t row = full.LowerBound(list[i]);
        uint32_t term = col != nullptr ? col->term_ids[row] : idx::kNoTerm;
        bool keep = is_compare
                        ? TermMatches(dict, term, vp.op, vp.lit)
                        : (term == idx::kNoTerm ? vp.lit.text.empty()
                                                : (*bitmap)[term] != 0);
        if (keep) out.Append(list[i]);
      }
      if (ctx != nullptr) ctx->CountValueIndexLookups(list.size());
      return out;
    }
    case ValuePred::Kind::kPathCompare: {
      auto tts = ChainTypes(g, vp.path, t, ctx);
      // Costed strategy choice, applicable when every terminal type has a
      // value column (all three strategies are byte-identical; an
      // uncovered type needs the scan fallback below either way).
      const bool covered =
          !tts->empty() &&
          std::all_of(tts->begin(), tts->end(), [&](dg::TypeId tt) {
            return vi.Column(tt) != nullptr;
          });
      if (covered) {
        CostModel cm(stored);
        PredPlan plan =
            cm.ChoosePredStrategy(t, list.size(), *tts, vp.op, vp.lit);
        if (plan.strategy == PredStrategy::kScanProbe) {
          return PredScanProbe(stored, vp, *tts, list, ctx);
        }
        if (plan.strategy == PredStrategy::kRowsProbe) {
          return PredRowsProbe(stored, pred, vp, *tts, list, ctx);
        }
        // kWitness falls through to the default path below.
      }
      PackedPbnList witnesses;
      for (dg::TypeId tt : *tts) {
        const idx::TypeColumn* col = vi.Column(tt);
        const num::PackedPbnList& packed = stored.PackedNodesOfType(tt);
        if (col != nullptr) {
          auto rows = MatchingRows(*col, pred, tt, vp.op, vp.lit, ctx);
          for (uint32_t row : *rows) witnesses.Append(packed[row]);
        } else {
          // Uncovered terminal type (nested structure): scan every
          // instance's assembled string value.
          const std::vector<xml::NodeId>& ids = stored.NodeIdsOfType(tt);
          for (size_t row = 0; row < ids.size(); ++row) {
            if (CompareValues(stored.doc().StringValue(ids[row]), vp.op,
                              vp.lit.text)) {
              witnesses.Append(packed[row]);
            }
          }
          if (ctx != nullptr) ctx->CountValueScanFallbacks(ids.size());
        }
      }
      witnesses.SortUnique();
      return SemiJoinAncestors(list, witnesses, ctx);
    }
    case ValuePred::Kind::kPathString: {
      auto tts = ChainTypes(g, vp.path, t, ctx);
      auto bitmap = TermBitmap(vi.dict(), vp.str_fn, vp.lit.text, ctx);
      for (size_t i = 0; i < list.size(); ++i) {
        // Document-order-first terminal instance within this context
        // instance (the node the scan path's string coercion reads).
        bool have = false;
        dg::TypeId best_tt = dg::kNullType;
        size_t best_row = 0;
        num::PackedPbnRef best{nullptr, 0, 0};
        for (dg::TypeId tt : *tts) {
          auto [first, last] = stored.TypeRangeWithin(tt, list[i]);
          if (first >= last) continue;
          num::PackedPbnRef candidate = stored.PackedNodesOfType(tt)[first];
          if (!have || candidate < best) {
            have = true;
            best = candidate;
            best_tt = tt;
            best_row = first;
          }
        }
        bool keep;
        if (!have) {
          keep = vp.lit.text.empty();  // empty node set coerces to ""
        } else {
          const idx::TypeColumn* col = vi.Column(best_tt);
          if (col != nullptr) {
            keep = (*bitmap)[col->term_ids[best_row]] != 0;
          } else {
            keep = TermMatchesString(
                stored.doc().StringValue(
                    stored.NodeIdsOfType(best_tt)[best_row]),
                vp.str_fn, vp.lit.text);
            if (ctx != nullptr) ctx->CountValueScanFallbacks(1);
          }
        }
        if (keep) out.Append(list[i]);
      }
      if (ctx != nullptr) ctx->CountValueIndexLookups(list.size());
      return out;
    }
  }
  return out;
}

/// Rough work estimate for one predicate against the current state, used
/// to order a step's predicates cheapest (most selective machinery) first:
/// attribute masks touch only the context list; indexed path comparisons
/// touch their matching rows, estimated from the column histograms so that
/// ordering materializes nothing; everything else streams over the terminal
/// types' full instance lists.
uint64_t EstimatePredCost(const storage::StoredDocument& stored,
                          const Expr& pred, const State& state,
                          ExecContext* ctx) {
  const dg::DataGuide& g = stored.dataguide();
  uint64_t total = 0;
  ValuePred vp;
  if (pred.kind != Expr::Kind::kPath && RecognizeValuePred(pred, &vp)) {
    if (vp.kind == ValuePred::Kind::kAttrCompare ||
        vp.kind == ValuePred::Kind::kAttrString) {
      for (const auto& [t, list] : state) total += list.size();
      return total;
    }
    for (const auto& [t, list] : state) {
      auto tts = ChainTypes(g, vp.path, t, ctx);
      for (dg::TypeId tt : *tts) {
        const idx::TypeColumn* col = stored.value_index().Column(tt);
        if (vp.kind == ValuePred::Kind::kPathString) {
          total += col != nullptr ? list.size()
                                  : stored.PackedNodesOfType(tt).size();
        } else if (col != nullptr) {
          total += static_cast<uint64_t>(
              CardinalityEstimator::ColumnSelectivity(*col, vp.op, vp.lit) *
              static_cast<double>(col->stats.row_count));
        } else {
          total += stored.PackedNodesOfType(tt).size();
        }
      }
    }
    return total;
  }
  // Existence chain: the semi-join streams over every terminal instance.
  for (const auto& [t, list] : state) {
    for (dg::TypeId tt : ResolveChainTypes(g, t, pred.path)) {
      total += stored.PackedNodesOfType(tt).size();
    }
  }
  return total;
}

/// Applies one step's predicates to every per-type list, cheapest first.
/// The per-type filters are independent (each anchors at one type and
/// reads only the immutable indexes and the context's thread-safe caches),
/// so they fan out on the pool; the filtered map is rebuilt in type order
/// afterwards, keeping the result identical to the sequential pass. All
/// predicate forms here are existential, so applying them in selectivity
/// order changes the work, never the result.
State ApplyPredicates(const storage::StoredDocument& stored, const Step& step,
                      State state, ExecContext* ctx) {
  std::vector<const Expr*> preds;
  preds.reserve(step.predicates.size());
  for (const auto& pred : step.predicates) preds.push_back(pred.get());
  if (preds.size() > 1) {
    std::vector<std::pair<uint64_t, const Expr*>> costed;
    costed.reserve(preds.size());
    for (const Expr* p : preds) {
      costed.emplace_back(EstimatePredCost(stored, *p, state, ctx), p);
    }
    std::stable_sort(
        costed.begin(), costed.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < costed.size(); ++i) preds[i] = costed[i].second;
  }
  for (const Expr* pred : preds) {
    ValuePred vp;
    const bool is_value =
        pred->kind != Expr::Kind::kPath && RecognizeValuePred(*pred, &vp);
    std::vector<std::pair<dg::TypeId, PackedPbnList>> entries(
        std::make_move_iterator(state.begin()),
        std::make_move_iterator(state.end()));
    std::vector<PackedPbnList> kept(entries.size());
    common::ParallelFor(
        entries.size() >= kParallelPredicateCutoff ? PoolOf(ctx) : nullptr,
        entries.size(), /*grain=*/1, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) {
            auto& [t, list] = entries[i];
            if (list.empty()) continue;
            if (is_value) {
              kept[i] = ApplyValuePred(stored, pred, vp, t, list, ctx);
              continue;
            }
            // Evaluate the relative chain anchored at this type.
            State anchor;
            anchor.emplace(t, list);
            State terminal = EvalChain(stored, pred->path, 0,
                                       std::move(anchor),
                                       /*from_document=*/false, ctx);
            // Union of all terminal instances witnesses the predicate.
            PackedPbnList witnesses;
            for (auto& [tt, tlist] : terminal) {
              for (size_t j = 0; j < tlist.size(); ++j) {
                witnesses.Append(tlist[j]);
              }
            }
            witnesses.SortUnique();
            kept[i] = SemiJoinAncestors(list, witnesses, ctx);
          }
        });
    State filtered;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!kept[i].empty()) {
        filtered.emplace(entries[i].first, std::move(kept[i]));
      }
    }
    state = std::move(filtered);
  }
  return state;
}

State EvalChain(const storage::StoredDocument& stored, const Path& path,
                size_t first_step, State state, bool from_document,
                ExecContext* ctx) {
  const dg::DataGuide& g = stored.dataguide();
  bool doc_node = from_document;
  for (size_t s = first_step; s < path.steps.size(); ++s) {
    const Step& step = path.steps[s];
    if (step.axis == num::Axis::kDescendantOrSelf &&
        step.test.kind == NodeTest::Kind::kAnyNode) {
      // The '//' anonymous step: extend every context type with all of its
      // descendants (instances unrestricted below the context — the next
      // step's join against the context list does the real filtering, so
      // fold this step into the next by expanding the *type* frontier).
      State next = state;
      for (auto& [t, list] : state) {
        for (dg::TypeId dt : g.DescendantTypes(t)) {
          // Descendant instances within any context instance: join.
          const PackedPbnList& all = stored.PackedNodesOfType(dt);
          auto pairs = Join(num::Axis::kDescendant, list, all, ctx);
          std::vector<bool> mark(all.size(), false);
          for (const num::JoinPair& p : pairs) mark[p.descendant_index] = true;
          PackedPbnList kept;
          for (size_t i = 0; i < all.size(); ++i) {
            if (mark[i]) kept.Append(all[i]);
          }
          if (kept.empty()) continue;
          auto it = next.find(dt);
          if (it == next.end()) {
            next.emplace(dt, std::move(kept));
          } else {
            it->second = PackedPbnList::MergeUnique(it->second, kept);
          }
        }
      }
      if (doc_node) {
        // From the document node '//' reaches every type in full.
        next.clear();
        for (dg::TypeId t = 0; t < g.num_types(); ++t) {
          next.emplace(t, stored.PackedNodesOfType(t));
        }
        doc_node = false;
      }
      state = std::move(next);
      continue;
    }

    State next;
    auto add = [&](dg::TypeId nt, PackedPbnList kept) {
      if (kept.empty()) return;
      if (ctx) ctx->CountNodes(kept.size());
      auto it = next.find(nt);
      if (it == next.end()) {
        next.emplace(nt, std::move(kept));
      } else {
        it->second = PackedPbnList::MergeUnique(it->second, kept);
      }
    };

    if (doc_node) {
      // Step from the document node.
      if (step.axis == num::Axis::kChild) {
        for (dg::TypeId rt : g.roots()) {
          if (TypeMatches(g, rt, step.test)) {
            add(rt, stored.PackedNodesOfType(rt));
          }
        }
      } else {  // descendant
        for (dg::TypeId t = 0; t < g.num_types(); ++t) {
          if (TypeMatches(g, t, step.test)) {
            add(t, stored.PackedNodesOfType(t));
          }
        }
      }
      doc_node = false;
    } else {
      for (auto& [t, list] : state) {
        std::vector<dg::TypeId> candidates;
        if (step.axis == num::Axis::kChild) {
          candidates = g.children(t);
        } else {
          candidates = g.DescendantTypes(t);
        }
        for (dg::TypeId nt : candidates) {
          if (!TypeMatches(g, nt, step.test)) continue;
          const PackedPbnList& all = stored.PackedNodesOfType(nt);
          std::vector<num::JoinPair> pairs = Join(step.axis, list, all, ctx);
          std::vector<bool> mark(all.size(), false);
          for (const num::JoinPair& p : pairs) mark[p.descendant_index] = true;
          PackedPbnList kept;
          for (size_t i = 0; i < all.size(); ++i) {
            if (mark[i]) kept.Append(all[i]);
          }
          add(nt, std::move(kept));
        }
      }
    }
    state = std::move(next);
    state = ApplyPredicates(stored, step, std::move(state), ctx);
  }
  return state;
}

/// The surviving per-type lists as NodeIds in document order. Each list is
/// a sorted subset of its type's full arena, so LowerBound there finds each
/// survivor's row, and the row's NodeId comes from the aligned column. The
/// per-type runs are then merged on their packed numbers: every run is
/// sorted and no node belongs to two types, so a heap over the run heads
/// emits document order in O(n log k) for k runs (a `//*` result has one
/// run per type).
std::vector<NodeId> InDocumentOrder(const storage::StoredDocument& stored,
                                    const State& state) {
  struct Run {
    const PackedPbnList* numbers;
    std::vector<NodeId> ids;  // aligned with *numbers
  };
  std::vector<Run> runs;
  runs.reserve(state.size());
  size_t total = 0;
  for (const auto& [t, list] : state) {
    if (list.empty()) continue;
    const PackedPbnList& full = stored.PackedNodesOfType(t);
    const std::vector<NodeId>& all_ids = stored.NodeIdsOfType(t);
    Run run{&list, {}};
    if (list.size() == full.size()) {
      run.ids = all_ids;  // every instance survived
    } else {
      run.ids.reserve(list.size());
      for (size_t i = 0; i < list.size(); ++i) {
        run.ids.push_back(all_ids[full.LowerBound(list[i])]);
      }
    }
    total += list.size();
    runs.push_back(std::move(run));
  }
  if (runs.size() == 1) return std::move(runs[0].ids);

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
    heap.push_back({(*runs[r].numbers)[0], static_cast<uint32_t>(r), 0});
  }
  std::make_heap(heap.begin(), heap.end(), after);
  std::vector<NodeId> out;
  out.reserve(total);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Head& h = heap.back();
    const Run& run = runs[h.run];
    out.push_back(run.ids[h.pos]);
    if (++h.pos < run.ids.size()) {
      h.number = (*run.numbers)[h.pos];
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
  return out;
}

}  // namespace

bool InBulkFragment(const Path& path) { return InFragment(path); }

Result<std::vector<NodeId>> EvalBulk(const storage::StoredDocument& stored,
                                     const Path& path, ExecContext* ctx) {
  if (!InFragment(path)) {
    return Status::NotImplemented(
        "bulk evaluation supports child/descendant chains with existence "
        "and value (comparison / contains / starts-with) predicates only");
  }
  State state =
      EvalChain(stored, path, 0, State(), /*from_document=*/true, ctx);
  return InDocumentOrder(stored, state);
}

Result<std::vector<NodeId>> EvalBulk(const storage::StoredDocument& stored,
                                     std::string_view path_text) {
  VPBN_ASSIGN_OR_RETURN(Path path, ParsePath(path_text));
  return EvalBulk(stored, path);
}

}  // namespace vpbn::query
