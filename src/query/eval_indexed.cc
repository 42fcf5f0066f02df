#include "query/eval_indexed.h"

#include <algorithm>
#include <string>

#include "pbn/packed.h"

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
    case Axis::kFollowingSibling:
      for (NodeId s = doc.next_sibling(n); s != xml::kNullNode;
           s = doc.next_sibling(s)) {
        if (TypeMatches(stored_->TypeOfNode(s), test)) out.push_back(s);
      }
      break;
    case Axis::kPrecedingSibling:
      for (NodeId s = doc.prev_sibling(n); s != xml::kNullNode;
           s = doc.prev_sibling(s)) {
        if (TypeMatches(stored_->TypeOfNode(s), test)) out.push_back(s);
      }
      break;
    case Axis::kFollowing:
    case Axis::kPreceding:
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
  if (ctx_ != nullptr) ++ctx_->stats().value_index_lookups;
  return col->dict->term(col->term_ids[stored_->RowOfNode(n)]);
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
