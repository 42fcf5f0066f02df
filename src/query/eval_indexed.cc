#include "query/eval_indexed.h"

#include <algorithm>
#include <string>

#include "pbn/codec.h"
#include "pbn/packed.h"
#include "query/cost_model.h"

namespace vpbn::query {

using num::Pbn;

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

dg::TypeId IndexedAdapter::TypeOf(const Pbn& n) const {
  return stored_->TypeOfNode(stored_->numbering().NodeOf(n).value());
}

std::vector<Pbn> IndexedAdapter::DocumentRoots(const NodeTest& test) const {
  std::vector<Pbn> out;
  const dg::DataGuide& g = stored_->dataguide();
  for (dg::TypeId rt : g.roots()) {
    if (!TypeMatches(rt, test)) continue;
    const auto& nodes = stored_->NodesOfType(rt);
    out.insert(out.end(), nodes.begin(), nodes.end());
  }
  return out;
}

std::vector<Pbn> IndexedAdapter::AllNodes(const NodeTest& test) const {
  std::vector<Pbn> out;
  for (dg::TypeId t : MatchingTypes(test)) {
    const auto& nodes = stored_->NodesOfType(t);
    out.insert(out.end(), nodes.begin(), nodes.end());
  }
  return out;
}

std::vector<Pbn> IndexedAdapter::Axis(const Pbn& n, num::Axis axis,
                                      const NodeTest& test) const {
  using num::Axis;
  const dg::DataGuide& g = stored_->dataguide();
  dg::TypeId nt = TypeOf(n);
  std::vector<Pbn> out;
  switch (axis) {
    case Axis::kSelf:
      if (TypeMatches(nt, test)) out.push_back(n);
      break;
    case Axis::kChild:
      // Candidate types are the DataGuide children; every instance inside
      // the subtree is a child (its depth is ours + 1).
      for (dg::TypeId ct : g.children(nt)) {
        if (!TypeMatches(ct, test)) continue;
        for (Pbn& p : stored_->NodesOfTypeWithin(ct, n)) {
          out.push_back(std::move(p));
        }
      }
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      if (axis == Axis::kDescendantOrSelf && TypeMatches(nt, test)) {
        out.push_back(n);
      }
      for (dg::TypeId dt : g.DescendantTypes(nt)) {
        if (!TypeMatches(dt, test)) continue;
        for (Pbn& p : stored_->NodesOfTypeWithin(dt, n)) {
          out.push_back(std::move(p));
        }
      }
      break;
    }
    case Axis::kParent:
      if (n.length() > 1) {
        Pbn parent = n.Parent();
        if (TypeMatches(g.parent(nt), test)) out.push_back(std::move(parent));
      }
      break;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      if (axis == Axis::kAncestorOrSelf && TypeMatches(nt, test)) {
        out.push_back(n);
      }
      dg::TypeId t = g.parent(nt);
      for (size_t len = n.length() - 1; len >= 1; --len) {
        if (TypeMatches(t, test)) out.push_back(n.Prefix(len));
        t = g.parent(t);
      }
      break;
    }
    case Axis::kFollowing:
    case Axis::kPreceding:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      // Number-comparison scan over the packed arenas of matching types:
      // the context number is encoded once and every axis decision is a
      // memcmp against arena bytes; only hits materialize a Pbn.
      std::string encoded;
      num::EncodeOrdered(n, &encoded);
      num::PackedPbnRef nref(encoded.data(),
                             static_cast<uint32_t>(encoded.size()),
                             static_cast<uint32_t>(n.length()));
      for (dg::TypeId t : MatchingTypes(test)) {
        const num::PackedPbnList& all = stored_->PackedNodesOfType(t);
        for (size_t i = 0; i < all.size(); ++i) {
          if (num::PackedCheckAxis(axis, all[i], nref)) {
            out.push_back(all.Materialize(i));
          }
        }
      }
      break;
    }
    case Axis::kAttribute:
      break;
  }
  return out;
}

void IndexedAdapter::SortUnique(std::vector<Pbn>* nodes) const {
  std::sort(nodes->begin(), nodes->end());
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

std::string IndexedAdapter::StringValue(const Pbn& n) const {
  return stored_->doc().StringValue(stored_->numbering().NodeOf(n).value());
}

std::optional<std::string_view> IndexedAdapter::FastStringValue(
    const Pbn& n) const {
  xml::NodeId id = stored_->numbering().NodeOf(n).value();
  const idx::TypeColumn* col =
      stored_->value_index().Column(stored_->TypeOfNode(id));
  if (col == nullptr) return std::nullopt;
  if (ctx_ != nullptr) ctx_->CountValueIndexLookups(1);
  return col->dict->term(col->term_ids[stored_->RowOfNode(id)]);
}

/// One context-type slice of a BatchPredicate call: the indexes into the
/// context list whose nodes have this type, with their scopes pre-encoded
/// for the packed range scans.
struct IndexedAdapter::BatchGroup {
  dg::TypeId type = dg::kNullType;
  std::vector<size_t> indexes;          // into the context node list
  std::vector<xml::NodeId> ids;         // aligned with indexes
  std::vector<num::PackedPbnRef> refs;  // aligned; views into `encodings`
  std::vector<std::string> encodings;
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
                                    const std::vector<Pbn>& nodes,
                                    std::vector<char>* keep) const {
  if (nodes.empty()) return false;

  std::vector<xml::NodeId> ids(nodes.size());
  std::vector<dg::TypeId> types(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    ids[i] = stored_->numbering().NodeOf(nodes[i]).value();
    types[i] = stored_->TypeOfNode(ids[i]);
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
    groups[g].ids.push_back(ids[i]);
  }
  // Encode every scope once; refs are views into the encodings, which must
  // not reallocate afterwards.
  for (BatchGroup& group : groups) {
    group.encodings.resize(group.indexes.size());
    group.refs.reserve(group.indexes.size());
    for (size_t k = 0; k < group.indexes.size(); ++k) {
      const Pbn& n = nodes[group.indexes[k]];
      num::EncodeOrdered(n, &group.encodings[k]);
      group.refs.emplace_back(group.encodings[k].data(),
                              static_cast<uint32_t>(group.encodings[k].size()),
                              static_cast<uint32_t>(n.length()));
    }
  }

  keep->assign(nodes.size(), 0);
  EvalBatchPredicate(pred, groups, keep);
  return true;
}

Result<std::string> IndexedAdapter::Attribute(const Pbn& n,
                                              const std::string& name) const {
  VPBN_ASSIGN_OR_RETURN(xml::NodeId id, stored_->numbering().NodeOf(n));
  if (!stored_->doc().IsElement(id)) {
    return Status::NotFound("text node has no attributes");
  }
  return stored_->doc().AttributeValue(id, name);
}

Result<std::vector<Pbn>> EvalIndexed(const storage::StoredDocument& stored,
                                     std::string_view path_text) {
  VPBN_ASSIGN_OR_RETURN(Path path, ParsePath(path_text));
  return EvalIndexed(stored, path);
}

Result<std::vector<Pbn>> EvalIndexed(const storage::StoredDocument& stored,
                                     const Path& path, ExecContext* ctx) {
  IndexedAdapter adapter(stored, ctx);
  PathEvaluator<IndexedAdapter> evaluator(adapter, ctx);
  return evaluator.Eval(path);
}

}  // namespace vpbn::query
