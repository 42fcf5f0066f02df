#include "query/eval_indexed.h"

#include <algorithm>
#include <string>

#include "pbn/packed.h"
#include "query/cost_model.h"

namespace vpbn::query {

using xml::NodeId;

bool IndexedAdapter::TypeMatches(dg::TypeId t, const NodeTest& test) const {
  const dg::DataGuide& g = stored_->dataguide();
  return test.Matches(!g.IsTextType(t), g.label(t));
}

std::vector<dg::TypeId> IndexedAdapter::MatchingTypes(
    const NodeTest& test) const {
  const dg::DataGuide& g = stored_->dataguide();
  std::vector<dg::TypeId> out;
  for (dg::TypeId t = 0; t < g.num_types(); ++t) {
    if (TypeMatches(t, test)) out.push_back(t);
  }
  return out;
}

std::vector<NodeId> IndexedAdapter::DocumentRoots(const NodeTest& test) const {
  std::vector<NodeId> out;
  const dg::DataGuide& g = stored_->dataguide();
  for (dg::TypeId rt : g.roots()) {
    if (!TypeMatches(rt, test)) continue;
    const std::vector<NodeId>& ids = stored_->NodeIdsOfType(rt);
    out.insert(out.end(), ids.begin(), ids.end());
  }
  return out;
}

std::vector<NodeId> IndexedAdapter::AllNodes(const NodeTest& test) const {
  std::vector<NodeId> out;
  for (dg::TypeId t : MatchingTypes(test)) {
    const std::vector<NodeId>& ids = stored_->NodeIdsOfType(t);
    out.insert(out.end(), ids.begin(), ids.end());
  }
  return out;
}

std::vector<NodeId> IndexedAdapter::Axis(const NodeId& n, num::Axis axis,
                                         const NodeTest& test) const {
  using num::Axis;
  const dg::DataGuide& g = stored_->dataguide();
  const xml::Document& doc = stored_->doc();
  const dg::TypeId nt = stored_->TypeOfNode(n);
  const num::PackedPbnRef self = stored_->NumberOf(n);
  std::vector<NodeId> out;
  // The instances of type t inside n's subtree: one slice of the type's
  // NodeId column, found by a containment range scan on its arena.
  auto append_within = [&](dg::TypeId t) {
    auto [first, last] = stored_->TypeRangeWithin(t, self);
    const std::vector<NodeId>& ids = stored_->NodeIdsOfType(t);
    out.insert(out.end(), ids.begin() + first, ids.begin() + last);
  };
  switch (axis) {
    case Axis::kSelf:
      if (TypeMatches(nt, test)) out.push_back(n);
      break;
    case Axis::kChild:
      // Candidate types are the DataGuide children; every instance inside
      // the subtree is a child (its depth is ours + 1).
      for (dg::TypeId ct : g.children(nt)) {
        if (TypeMatches(ct, test)) append_within(ct);
      }
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      if (axis == Axis::kDescendantOrSelf && TypeMatches(nt, test)) {
        out.push_back(n);
      }
      for (dg::TypeId dt : g.DescendantTypes(nt)) {
        if (TypeMatches(dt, test)) append_within(dt);
      }
      break;
    case Axis::kParent: {
      const NodeId p = doc.parent(n);
      if (p != xml::kNullNode && TypeMatches(g.parent(nt), test)) {
        out.push_back(p);
      }
      break;
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
      if (axis == Axis::kAncestorOrSelf && TypeMatches(nt, test)) {
        out.push_back(n);
      }
      for (NodeId p = doc.parent(n); p != xml::kNullNode; p = doc.parent(p)) {
        if (TypeMatches(stored_->TypeOfNode(p), test)) out.push_back(p);
      }
      break;
    case Axis::kFollowing:
    case Axis::kPreceding:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
      // Number-comparison scan over the packed arenas of matching types:
      // every axis decision is a memcmp against arena bytes, and hits read
      // their NodeId from the aligned column.
      for (dg::TypeId t : MatchingTypes(test)) {
        const num::PackedPbnList& all = stored_->PackedNodesOfType(t);
        const std::vector<NodeId>& ids = stored_->NodeIdsOfType(t);
        for (size_t i = 0; i < all.size(); ++i) {
          if (num::PackedCheckAxis(axis, all[i], self)) out.push_back(ids[i]);
        }
      }
      break;
    case Axis::kAttribute:
      break;
  }
  return out;
}

void IndexedAdapter::SortUnique(std::vector<NodeId>* nodes) const {
  if (nodes->size() < 2) return;
  // NodeIds need not follow document order (a builder may attach children
  // to earlier parents), so order by packed number. Equal numbers are the
  // same node, so duplicates end up adjacent.
  std::vector<std::pair<num::PackedPbnRef, NodeId>> keyed;
  keyed.reserve(nodes->size());
  for (NodeId id : *nodes) keyed.emplace_back(stored_->NumberOf(id), id);
  auto less = [](const auto& a, const auto& b) { return a.first < b.first; };
  if (!std::is_sorted(keyed.begin(), keyed.end(), less)) {
    std::sort(keyed.begin(), keyed.end(), less);
  }
  nodes->clear();
  for (const auto& entry : keyed) {
    if (nodes->empty() || nodes->back() != entry.second) {
      nodes->push_back(entry.second);
    }
  }
}

std::string IndexedAdapter::StringValue(const NodeId& n) const {
  return stored_->doc().StringValue(n);
}

std::optional<std::string_view> IndexedAdapter::FastStringValue(
    const NodeId& n) const {
  const idx::TypeColumn* col =
      stored_->value_index().Column(stored_->TypeOfNode(n));
  if (col == nullptr) return std::nullopt;
  if (ctx_ != nullptr) ctx_->CountValueIndexLookups(1);
  return col->dict->term(col->term_ids[stored_->RowOfNode(n)]);
}

/// One context-type slice of a BatchPredicate call: the indexes into the
/// context list whose nodes have this type, with their packed numbers (the
/// scopes of the range scans).
struct IndexedAdapter::BatchGroup {
  dg::TypeId type = dg::kNullType;
  std::vector<size_t> indexes;          // into the context node list
  std::vector<NodeId> ids;              // aligned with indexes
  std::vector<num::PackedPbnRef> refs;  // aligned; views into the arena
};

bool IndexedAdapter::CanPushPredicate(
    const Expr& e, const std::vector<dg::TypeId>& context_types) const {
  switch (e.kind) {
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      return CanPushPredicate(*e.lhs, context_types) &&
             CanPushPredicate(*e.rhs, context_types);
    case Expr::Kind::kNot:
      return CanPushPredicate(*e.lhs, context_types);
    case Expr::Kind::kPath:
      // Existence of a predicate-free chain: answered by packed subtree
      // ranges alone, no value column needed.
      return IsPredicateFreeChain(e.path);
    default: {
      ValuePred vp;
      if (!RecognizeValuePred(e, &vp)) return false;
      if (vp.kind == ValuePred::Kind::kAttrCompare ||
          vp.kind == ValuePred::Kind::kAttrString) {
        return true;
      }
      // Path-valued: every terminal type must carry a value column, or the
      // per-node scan is the only exact answer.
      const dg::DataGuide& g = stored_->dataguide();
      for (dg::TypeId t : context_types) {
        for (dg::TypeId tt : ResolveChainTypes(g, t, *vp.path)) {
          if (stored_->value_index().Column(tt) == nullptr) return false;
        }
      }
      return true;
    }
  }
}

void IndexedAdapter::EvalBatchPredicate(const Expr& e,
                                        const std::vector<BatchGroup>& groups,
                                        std::vector<char>* keep) const {
  switch (e.kind) {
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      EvalBatchPredicate(*e.lhs, groups, keep);
      std::vector<char> rhs(keep->size(), 0);
      EvalBatchPredicate(*e.rhs, groups, &rhs);
      for (size_t i = 0; i < keep->size(); ++i) {
        (*keep)[i] = e.kind == Expr::Kind::kAnd ? ((*keep)[i] && rhs[i])
                                                : ((*keep)[i] || rhs[i]);
      }
      return;
    }
    case Expr::Kind::kNot: {
      EvalBatchPredicate(*e.lhs, groups, keep);
      for (size_t i = 0; i < keep->size(); ++i) (*keep)[i] = !(*keep)[i];
      return;
    }
    case Expr::Kind::kPath: {
      const dg::DataGuide& g = stored_->dataguide();
      for (const BatchGroup& group : groups) {
        auto tts = ChainTypes(g, &e.path, group.type, ctx_);
        for (size_t k = 0; k < group.indexes.size(); ++k) {
          for (dg::TypeId tt : *tts) {
            auto [first, last] = stored_->TypeRangeWithin(tt, group.refs[k]);
            if (first < last) {
              (*keep)[group.indexes[k]] = 1;
              break;
            }
          }
        }
      }
      return;
    }
    default:
      break;
  }

  ValuePred vp;
  RecognizeValuePred(e, &vp);  // CanPushPredicate vetted the shape
  const idx::ValueIndex& vi = stored_->value_index();
  const dg::DataGuide& g = stored_->dataguide();
  switch (vp.kind) {
    case ValuePred::Kind::kAttrCompare: {
      const idx::Dictionary& dict = vi.dict();
      for (const BatchGroup& group : groups) {
        const idx::AttrColumn* col = vi.Attr(group.type, vp.attr);
        for (size_t k = 0; k < group.indexes.size(); ++k) {
          uint32_t term =
              col != nullptr
                  ? col->term_ids[stored_->RowOfNode(group.ids[k])]
                  : idx::kNoTerm;
          (*keep)[group.indexes[k]] =
              TermMatches(dict, term, vp.op, vp.lit) ? 1 : 0;
        }
        if (ctx_ != nullptr) {
          ctx_->CountValueIndexLookups(group.indexes.size());
        }
      }
      return;
    }
    case ValuePred::Kind::kAttrString: {
      const idx::Dictionary& dict = vi.dict();
      auto bitmap = TermBitmap(dict, vp.str_fn, vp.lit.text, ctx_);
      for (const BatchGroup& group : groups) {
        const idx::AttrColumn* col = vi.Attr(group.type, vp.attr);
        for (size_t k = 0; k < group.indexes.size(); ++k) {
          uint32_t term =
              col != nullptr
                  ? col->term_ids[stored_->RowOfNode(group.ids[k])]
                  : idx::kNoTerm;
          // A missing attribute coerces to "", which satisfies both string
          // functions exactly when the needle is empty.
          (*keep)[group.indexes[k]] = term == idx::kNoTerm
                                          ? (vp.lit.text.empty() ? 1 : 0)
                                          : (*bitmap)[term];
        }
        if (ctx_ != nullptr) {
          ctx_->CountValueIndexLookups(group.indexes.size());
        }
      }
      return;
    }
    case ValuePred::Kind::kPathCompare: {
      for (const BatchGroup& group : groups) {
        auto tts = ChainTypes(g, vp.path, group.type, ctx_);
        // Costed choice between probing materialized matching-rows lists
        // (wins at low selectivity) and scanning each context's
        // terminal-row range directly with zone-map block skipping (wins at
        // high selectivity — no materialization, early exit on the first
        // hit). Byte-identical either way.
        if (!tts->empty()) {
          CostModel cm(*stored_);
          PredPlan plan = cm.ChoosePredStrategy(
              group.type, group.indexes.size(), *tts, vp.op, vp.lit);
          if (plan.strategy == PredStrategy::kScanProbe) {
            const idx::Dictionary& dict = vi.dict();
            const bool string_eq =
                vp.op == CompareOp::kEq && !vp.lit.numeric;
            const uint32_t eq_term =
                string_eq ? dict.Find(vp.lit.text) : idx::kNoTerm;
            uint64_t skips = 0;
            uint64_t tested = 0;
            for (size_t k = 0; k < group.indexes.size(); ++k) {
              bool hit = false;
              for (size_t j = 0; j < tts->size() && !hit; ++j) {
                if (string_eq && eq_term == idx::kNoTerm) break;
                const idx::TypeColumn* col = vi.Column((*tts)[j]);
                auto [first, last] =
                    stored_->TypeRangeWithin((*tts)[j], group.refs[k]);
                size_t row = first;
                while (row < last && !hit) {
                  const size_t b = row / idx::ColumnStats::kZoneBlockRows;
                  const size_t block_end = std::min(
                      last, (b + 1) * idx::ColumnStats::kZoneBlockRows);
                  if (!ZoneBlockCanMatch(col->stats, b, vp.op, vp.lit,
                                         eq_term)) {
                    ++skips;
                    row = block_end;
                    continue;
                  }
                  for (; row < block_end; ++row) {
                    ++tested;
                    if (TermMatches(dict, col->term_ids[row], vp.op,
                                    vp.lit)) {
                      hit = true;
                      break;
                    }
                  }
                }
              }
              (*keep)[group.indexes[k]] = hit ? 1 : 0;
            }
            if (ctx_ != nullptr) {
              ctx_->CountValueIndexLookups(group.indexes.size() *
                                           tts->size());
              ctx_->CountValueIndexPostings(tested);
              ctx_->CountZoneMapSkips(skips);
            }
            continue;
          }
        }
        std::vector<std::shared_ptr<const std::vector<uint32_t>>> rows_by_tt;
        rows_by_tt.reserve(tts->size());
        for (dg::TypeId tt : *tts) {
          rows_by_tt.push_back(
              MatchingRows(*vi.Column(tt), &e, tt, vp.op, vp.lit, ctx_));
        }
        for (size_t k = 0; k < group.indexes.size(); ++k) {
          bool hit = false;
          for (size_t j = 0; j < tts->size() && !hit; ++j) {
            auto [first, last] =
                stored_->TypeRangeWithin((*tts)[j], group.refs[k]);
            if (first >= last) continue;
            const std::vector<uint32_t>& rows = *rows_by_tt[j];
            auto it = std::lower_bound(rows.begin(), rows.end(),
                                       static_cast<uint32_t>(first));
            hit = it != rows.end() && *it < last;
          }
          (*keep)[group.indexes[k]] = hit ? 1 : 0;
        }
      }
      return;
    }
    case ValuePred::Kind::kPathString: {
      // contains()/starts-with() coerce the node set to its *first* node's
      // string value, so each context node tests the document-order-minimal
      // terminal instance in its subtree (or "" when there is none).
      auto bitmap = TermBitmap(vi.dict(), vp.str_fn, vp.lit.text, ctx_);
      for (const BatchGroup& group : groups) {
        auto tts = ChainTypes(g, vp.path, group.type, ctx_);
        for (size_t k = 0; k < group.indexes.size(); ++k) {
          const idx::TypeColumn* best_col = nullptr;
          size_t best_row = 0;
          bool have = false;
          num::PackedPbnRef best{nullptr, 0, 0};
          for (dg::TypeId tt : *tts) {
            auto [first, last] = stored_->TypeRangeWithin(tt, group.refs[k]);
            if (first >= last) continue;
            num::PackedPbnRef candidate = stored_->PackedNodesOfType(tt)[first];
            if (!have || candidate < best) {
              have = true;
              best = candidate;
              best_col = vi.Column(tt);
              best_row = first;
            }
          }
          (*keep)[group.indexes[k]] =
              !have ? (vp.lit.text.empty() ? 1 : 0)
                    : (*bitmap)[best_col->term_ids[best_row]];
        }
        if (ctx_ != nullptr) {
          ctx_->CountValueIndexLookups(group.indexes.size());
        }
      }
      return;
    }
  }
}

bool IndexedAdapter::BatchPredicate(const Expr& pred,
                                    const std::vector<NodeId>& nodes,
                                    std::vector<char>* keep) const {
  if (nodes.empty()) return false;

  std::vector<dg::TypeId> types(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    types[i] = stored_->TypeOfNode(nodes[i]);
  }
  std::vector<dg::TypeId> distinct = types;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  if (!CanPushPredicate(pred, distinct)) return false;

  std::vector<BatchGroup> groups(distinct.size());
  for (size_t g = 0; g < distinct.size(); ++g) groups[g].type = distinct[g];
  for (size_t i = 0; i < nodes.size(); ++i) {
    size_t g = std::lower_bound(distinct.begin(), distinct.end(), types[i]) -
               distinct.begin();
    groups[g].indexes.push_back(i);
    groups[g].ids.push_back(nodes[i]);
    groups[g].refs.push_back(stored_->NumberOf(nodes[i]));
  }

  keep->assign(nodes.size(), 0);
  EvalBatchPredicate(pred, groups, keep);
  return true;
}

Result<std::string> IndexedAdapter::Attribute(const NodeId& n,
                                              const std::string& name) const {
  if (!stored_->doc().IsElement(n)) {
    return Status::NotFound("text node has no attributes");
  }
  return stored_->doc().AttributeValue(n, name);
}

Result<std::vector<NodeId>> EvalIndexed(const storage::StoredDocument& stored,
                                        std::string_view path_text) {
  VPBN_ASSIGN_OR_RETURN(Path path, ParsePath(path_text));
  return EvalIndexed(stored, path);
}

Result<std::vector<NodeId>> EvalIndexed(const storage::StoredDocument& stored,
                                        const Path& path, ExecContext* ctx) {
  IndexedAdapter adapter(stored, ctx);
  PathEvaluator<IndexedAdapter> evaluator(adapter, ctx);
  return evaluator.Eval(path);
}

}  // namespace vpbn::query
