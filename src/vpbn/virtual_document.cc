#include "vpbn/virtual_document.h"

#include <algorithm>
#include <unordered_map>

namespace vpbn::virt {

namespace {

/// A virtual type is intact iff its children are exactly the original
/// type's children (same originals, same order) and each child is intact.
std::vector<bool> ComputeIntactTypes(const vdg::VDataGuide& vg) {
  const dg::DataGuide& orig = vg.original_guide();
  std::vector<bool> intact(vg.num_vtypes(), false);
  std::vector<vdg::VTypeId> order = vg.PreOrder();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    vdg::VTypeId t = *it;
    const std::vector<vdg::VTypeId>& vkids = vg.children(t);
    const std::vector<dg::TypeId>& okids = orig.children(vg.original(t));
    bool ok = vkids.size() == okids.size();
    for (size_t i = 0; ok && i < vkids.size(); ++i) {
      ok = vg.original(vkids[i]) == okids[i] && intact[vkids[i]];
    }
    intact[t] = ok;
  }
  return intact;
}

}  // namespace

VirtualDocument::VirtualDocument(VirtualDocument&& other) noexcept
    : stored_(other.stored_),
      vguide_(std::move(other.vguide_)),
      space_(std::move(other.space_)),
      intact_(std::move(other.intact_)),
      guaranteed_(std::move(other.guaranteed_)),
      decoded_(std::move(other.decoded_)),
      reach_(std::move(other.reach_)),
      vvalue_cols_(std::move(other.vvalue_cols_)) {}

VirtualDocument& VirtualDocument::operator=(VirtualDocument&& other) noexcept {
  if (this != &other) {
    stored_ = other.stored_;
    vguide_ = std::move(other.vguide_);
    space_ = std::move(other.space_);
    intact_ = std::move(other.intact_);
    guaranteed_ = std::move(other.guaranteed_);
    decoded_ = std::move(other.decoded_);
    reach_ = std::move(other.reach_);
    vvalue_cols_ = std::move(other.vvalue_cols_);
  }
  return *this;
}

Result<VirtualDocument> VirtualDocument::Open(
    const storage::StoredDocument& stored, std::string_view spec_text) {
  VirtualDocument out;
  out.stored_ = &stored;
  VPBN_ASSIGN_OR_RETURN(
      vdg::VDataGuide guide,
      vdg::VDataGuide::Create(spec_text, stored.dataguide()));
  out.vguide_ = std::make_unique<vdg::VDataGuide>(std::move(guide));
  VPBN_ASSIGN_OR_RETURN(out.space_, VpbnSpace::Create(*out.vguide_));
  out.intact_ = ComputeIntactTypes(*out.vguide_);

  // Guaranteed reachability: an edge guarantees its child instances'
  // parent exists when the parent's original type is an ancestor-or-self
  // of the child's (the parent instance is a prefix of the child's own
  // number). Roots are trivially in the document.
  const vdg::VDataGuide& vg = *out.vguide_;
  const dg::DataGuide& orig = stored.dataguide();
  out.guaranteed_.assign(vg.num_vtypes(), false);
  for (vdg::VTypeId t : vg.PreOrder()) {
    if (vg.parent(t) == vdg::kNullVType) {
      out.guaranteed_[t] = true;
    } else {
      out.guaranteed_[t] =
          out.guaranteed_[vg.parent(t)] &&
          orig.IsAncestorOrSelfType(vg.original(vg.parent(t)),
                                    vg.original(t));
    }
  }
  return out;
}

Result<std::shared_ptr<const VirtualDocument>> VirtualDocument::OpenShared(
    std::shared_ptr<const storage::StoredDocument> stored,
    std::string_view spec_text) {
  if (stored == nullptr) {
    return Status::InvalidArgument("OpenShared: null stored document");
  }
  VPBN_ASSIGN_OR_RETURN(VirtualDocument vdoc, Open(*stored, spec_text));
  // One control block owns both the view and the stored document it points
  // into; the aliasing pointer exposes only the view.
  struct Holder {
    std::shared_ptr<const storage::StoredDocument> keep_alive;
    VirtualDocument vdoc;
  };
  auto holder = std::make_shared<Holder>(
      Holder{std::move(stored), std::move(vdoc)});
  return std::shared_ptr<const VirtualDocument>(holder, &holder->vdoc);
}

const num::DecodedPbnColumn& VirtualDocument::DecodedNodesOfType(
    dg::TypeId t, bool* built_now) const {
  if (built_now != nullptr) *built_now = false;
  {
    std::lock_guard<std::mutex> lock(decoded_mu_);
    if (decoded_.size() <= t) decoded_.resize(stored_->dataguide().num_types());
    if (decoded_[t] != nullptr) return *decoded_[t];
  }
  // Decode outside the lock; a concurrent racer computes the same column.
  auto column = std::make_unique<num::DecodedPbnColumn>();
  column->FromList(stored_->PackedNodesOfType(t));
  std::lock_guard<std::mutex> lock(decoded_mu_);
  if (decoded_[t] == nullptr) {
    decoded_[t] = std::move(column);
    if (built_now != nullptr) *built_now = true;
  }
  return *decoded_[t];
}

const idx::TypeColumn* VirtualDocument::ValueColumn(vdg::VTypeId t) const {
  const vdg::VDataGuide& vg = *vguide_;
  // Covered iff the string-value is flat in the *virtual* shape: a text
  // vtype, or an element vtype whose vguide children are all text vtypes.
  if (!vg.IsTextVType(t)) {
    for (vdg::VTypeId c : vg.children(t)) {
      if (!vg.IsTextVType(c)) return nullptr;
    }
  }
  dg::TypeId ot = vg.original(t);
  if (intact_[t]) {
    // Intact subtree: virtual string-values equal the original ones, so
    // the stored index's column (same row alignment) serves directly.
    const idx::TypeColumn* col = stored_->value_index().Column(ot);
    if (col != nullptr) return col;
  }
  {
    std::lock_guard<std::mutex> lock(vvalue_mu_);
    if (vvalue_cols_.empty()) vvalue_cols_.resize(vg.num_vtypes());
    if (vvalue_cols_[t] != nullptr) return &vvalue_cols_[t]->column;
  }
  // Assemble outside the lock over *every* instance of the original type
  // (rows must align with NodeIdsOfType whether or not an instance is
  // reachable); a concurrent racer computes the same column and the first
  // store wins.
  const std::vector<xml::NodeId>& ids = stored_->NodeIdsOfType(ot);
  auto made = std::make_unique<AssembledValueColumn>();
  made->column = idx::ValueIndex::BuildColumn(
      ids.size(),
      [&](size_t row) { return StringValue(VirtualNode{ids[row], t}); },
      &made->dict);
  std::lock_guard<std::mutex> lock(vvalue_mu_);
  if (vvalue_cols_[t] == nullptr) vvalue_cols_[t] = std::move(made);
  return &vvalue_cols_[t]->column;
}

std::vector<uint8_t> VirtualDocument::BuildReachableBitmap(
    vdg::VTypeId t) const {
  const dg::DataGuide& orig = stored_->dataguide();
  dg::TypeId ot = vguide_->original(t);
  std::vector<uint8_t> bm(stored_->NodeIdsOfType(ot).size(), 0);
  // Only non-guaranteed types build bitmaps, and roots are guaranteed, so
  // t has a virtual parent type.
  vdg::VTypeId pt = vguide_->parent(t);
  dg::TypeId pot = vguide_->original(pt);
  // The placement relation is empty when the originals share no tree of
  // the DataGuide forest (RelatedInstances finds no LCA): no instance has
  // any parent, so none is reachable.
  if (orig.LcaType(pot, ot) == dg::kNullType) return bm;
  // An instance is reachable iff some compatible parent instance is (the
  // virtual parent relation *is* NumbersCompatible for a (parent-type,
  // child-type) pair — the type and level conditions hold structurally).
  const std::vector<uint8_t>* parent_bm =
      guaranteed_[pt] ? nullptr : ReachableBitmap(pt);
  VPairMergePlan plan =
      space_.PlanPairMerge(pt, t, orig.length(pot), orig.length(ot));
  MergeCompatiblePairs(plan, DecodedNodesOfType(pot), DecodedNodesOfType(ot),
                       nullptr, [&](size_t pi, size_t ci) {
                         if (parent_bm == nullptr || (*parent_bm)[pi] != 0) {
                           bm[ci] = 1;
                         }
                       });
  return bm;
}

const std::vector<uint8_t>* VirtualDocument::ReachableBitmap(
    vdg::VTypeId t) const {
  if (guaranteed_[t]) return nullptr;
  {
    std::lock_guard<std::mutex> lock(reach_mu_);
    if (reach_.size() <= t) reach_.resize(vguide_->num_vtypes());
    if (reach_[t] != nullptr) return reach_[t].get();
  }
  // Build outside the lock: the recursion climbs strictly toward vDataGuide
  // roots (no cycles), and a concurrent thread building the same bitmap
  // derives the same bits from the same immutable structures.
  auto bm = std::make_unique<std::vector<uint8_t>>(BuildReachableBitmap(t));
  std::lock_guard<std::mutex> lock(reach_mu_);
  if (reach_[t] == nullptr) reach_[t] = std::move(bm);
  return reach_[t].get();
}

bool VirtualDocument::IsReachable(const VirtualNode& v) const {
  // A virtual node's node always has its vtype's original type, so its row
  // in that type's instance list is the bitmap index.
  return IsReachableAt(v.vtype, stored_->RowOfNode(v.node));
}

std::vector<VirtualNode> VirtualDocument::NodesOfVType(
    vdg::VTypeId t) const {
  const std::vector<xml::NodeId>& ids =
      stored_->NodeIdsOfType(vguide_->original(t));
  std::vector<VirtualNode> out;
  out.reserve(ids.size());
  for (xml::NodeId id : ids) out.push_back(VirtualNode{id, t});
  return out;
}

std::vector<VirtualNode> VirtualDocument::Roots() const {
  std::vector<VirtualNode> out;
  for (vdg::VTypeId rt : vguide_->roots()) {
    std::vector<VirtualNode> nodes = NodesOfVType(rt);
    out.insert(out.end(), nodes.begin(), nodes.end());
  }
  SortVirtualOrder(&out);
  return out;
}

std::vector<VirtualNode> VirtualDocument::RelatedInstances(
    xml::NodeId x, vdg::VTypeId ct) const {
  const dg::DataGuide& orig = stored_->dataguide();
  dg::TypeId tx = stored_->TypeOfNode(x);
  dg::TypeId ty = vguide_->original(ct);
  dg::TypeId z = orig.LcaType(tx, ty);
  std::vector<VirtualNode> out;
  if (z == dg::kNullType) return out;  // unrelated trees: no instances

  if (z == ty) {
    // Case 2 (including ty == tx): the unique ancestor-or-self of x at the
    // original depth of ty, length(tx) - length(ty) parent links up.
    xml::NodeId anc = x;
    for (size_t up = orig.length(tx) - orig.length(ty); up > 0; --up) {
      anc = stored_->doc().parent(anc);
    }
    out.push_back(VirtualNode{anc, ct});
    return out;
  }
  // Cases 1 and 3: scan instances of ty inside the subtree of x's ancestor
  // at the LCA's depth (which is x itself when z == tx).
  num::Pbn scope = stored_->numbering().OfNode(x).Prefix(orig.length(z));
  auto [first, last] = stored_->TypeRangeWithin(ty, scope);
  const std::vector<xml::NodeId>& ids = stored_->NodeIdsOfType(ty);
  out.reserve(last - first);
  for (size_t i = first; i < last; ++i) {
    out.push_back(VirtualNode{ids[i], ct});
  }
  return out;
}

std::vector<VirtualNode> VirtualDocument::Children(
    const VirtualNode& v) const {
  std::vector<VirtualNode> out;
  for (vdg::VTypeId ct : vguide_->children(v.vtype)) {
    std::vector<VirtualNode> related = RelatedInstances(v.node, ct);
    out.insert(out.end(), related.begin(), related.end());
  }
  SortVirtualOrder(&out);
  return out;
}

std::vector<VirtualNode> VirtualDocument::Parents(
    const VirtualNode& v) const {
  std::vector<VirtualNode> out;
  vdg::VTypeId pt = vguide_->parent(v.vtype);
  if (pt == vdg::kNullVType) return out;
  // A candidate parent instance must have v among its children; reuse the
  // relation in the other direction and keep candidates that relate back.
  std::vector<VirtualNode> candidates = RelatedInstances(v.node, pt);
  const num::Numbering& num = stored_->numbering();
  VpbnView vx(num.OfNode(v.node), v.vtype);
  for (const VirtualNode& c : candidates) {
    if (space_.VParent(VpbnView(num.OfNode(c.node), c.vtype), vx)) {
      out.push_back(c);
    }
  }
  SortVirtualOrder(&out);
  return out;
}

std::vector<VirtualNode> VirtualDocument::AxisNodes(const VirtualNode& v,
                                                    num::Axis axis) const {
  using num::Axis;
  std::vector<VirtualNode> out;
  switch (axis) {
    case Axis::kSelf:
      out.push_back(v);
      return out;
    case Axis::kChild:
      return Children(v);
    case Axis::kParent: {
      // The placement relation may name a parent instance that is itself
      // orphaned (no chain to a root); such a parent has no copy in the
      // virtual document, so it is not an XPath parent of any copy of v.
      for (const VirtualNode& p : Parents(v)) {
        if (IsReachable(p)) out.push_back(p);
      }
      return out;
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      if (axis == Axis::kAncestorOrSelf) out.push_back(v);
      std::vector<VirtualNode> frontier;
      for (const VirtualNode& p : Parents(v)) {
        if (IsReachable(p)) frontier.push_back(p);
      }
      while (!frontier.empty()) {
        std::vector<VirtualNode> next;
        for (const VirtualNode& p : frontier) {
          out.push_back(p);
          for (const VirtualNode& gp : Parents(p)) {
            if (IsReachable(gp)) next.push_back(gp);
          }
        }
        SortVirtualOrder(&next);
        frontier = std::move(next);
      }
      SortVirtualOrder(&out);
      return out;
    }
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      if (axis == Axis::kDescendantOrSelf) out.push_back(v);
      std::vector<VirtualNode> frontier = Children(v);
      while (!frontier.empty()) {
        std::vector<VirtualNode> next;
        for (const VirtualNode& c : frontier) {
          out.push_back(c);
          std::vector<VirtualNode> down = Children(c);
          next.insert(next.end(), down.begin(), down.end());
        }
        SortVirtualOrder(&next);
        frontier = std::move(next);
      }
      SortVirtualOrder(&out);
      return out;
    }
    case Axis::kFollowing:
    case Axis::kPreceding: {
      // Candidates: reachable instances of every type in the virtual
      // forest (the order predicates span trees via forest order).
      Vpbn vx = VpbnOf(v);
      for (vdg::VTypeId t = 0; t < vguide_->num_vtypes(); ++t) {
        for (const VirtualNode& cand : NodesOfVType(t)) {
          Vpbn c = VpbnOf(cand);
          bool hit = axis == Axis::kFollowing ? space_.VFollowing(c, vx)
                                              : space_.VPreceding(c, vx);
          if (hit && IsReachable(cand)) out.push_back(cand);
        }
      }
      SortVirtualOrder(&out);
      return out;
    }
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      // Exact siblings: children of the node's actual virtual parents
      // (roots are siblings of the other roots), split by virtual order.
      std::vector<VirtualNode> sibs;
      if (vguide_->parent(v.vtype) == vdg::kNullVType) {
        sibs = Roots();
      } else {
        for (const VirtualNode& p : Parents(v)) {
          if (!IsReachable(p)) continue;  // no copies of p exist
          std::vector<VirtualNode> kids = Children(p);
          sibs.insert(sibs.end(), kids.begin(), kids.end());
        }
      }
      Vpbn vx = VpbnOf(v);
      for (const VirtualNode& cand : sibs) {
        if (cand == v) continue;
        auto cmp = space_.VCompare(VpbnOf(cand), vx);
        bool hit = axis == Axis::kFollowingSibling
                       ? cmp == std::weak_ordering::greater
                       : cmp == std::weak_ordering::less;
        if (hit) out.push_back(cand);
      }
      SortVirtualOrder(&out);
      return out;
    }
    case Axis::kAttribute:
      return out;
  }
  return out;
}

std::string VirtualDocument::StringValue(const VirtualNode& v) const {
  if (IsText(v)) return text(v);
  if (intact_[v.vtype]) return stored_->doc().StringValue(v.node);
  std::string out;
  for (const VirtualNode& c : Children(v)) {
    out += StringValue(c);
  }
  return out;
}

void VirtualDocument::SortVirtualOrder(std::vector<VirtualNode>* nodes) const {
  const size_t n = nodes->size();
  if (n <= 1) return;
  // Compare through borrowed views: OfNode hands out a stable reference,
  // so no Pbn is materialized per comparison.
  const num::Numbering& num = stored_->numbering();
  auto vless = [&](const VirtualNode& a, const VirtualNode& b) {
    return space_.VCompare(VpbnView(num.OfNode(a.node), a.vtype),
                           VpbnView(num.OfNode(b.node), b.vtype)) ==
           std::weak_ordering::less;
  };
  if (n < 32) {
    std::stable_sort(nodes->begin(), nodes->end(), vless);
    nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
    return;
  }

  // Large inputs: within one vtype every instance has the same number
  // length and the same level segmentation, so virtual order degenerates
  // to plain lexicographic PBN order — integer compares. Partition into
  // per-vtype runs, sort each run cheaply, and pay the full virtual-order
  // comparator only where runs interleave. Duplicates share a vtype, so
  // run-local dedup is complete.
  auto lexless = [&](const VirtualNode& a, const VirtualNode& b) {
    const std::vector<uint32_t>& ca = num.OfNode(a.node).components();
    const std::vector<uint32_t>& cb = num.OfNode(b.node).components();
    return std::lexicographical_compare(ca.begin(), ca.end(), cb.begin(),
                                        cb.end());
  };
  // Run-local order is plain document order, and the type index already
  // keeps an 8-byte ordered-codec sort key per instance. Decorating the
  // run with those keys turns the sortedness precheck into a flat uint64
  // scan and the sort into an integer sort; component compares fire only
  // on equal keys (numbers sharing their first eight encoded bytes).
  dg::TypeId memo_type = dg::kNullType;
  const uint64_t* memo_keys = nullptr;
  auto doc_key = [&](const VirtualNode& v) {
    const dg::TypeId t = stored_->TypeOfNode(v.node);
    if (t != memo_type) {
      memo_type = t;
      memo_keys = stored_->PackedNodesOfType(t).keys_data();
    }
    return memo_keys[stored_->RowOfNode(v.node)];
  };
  auto sort_run = [&](std::vector<VirtualNode>* run) {
    const size_t m = run->size();
    std::vector<uint64_t> keys(m);
    for (size_t i = 0; i < m; ++i) keys[i] = doc_key((*run)[i]);
    bool sorted = true;
    for (size_t i = 0; i + 1 < m; ++i) {
      if (keys[i] > keys[i + 1] ||
          (keys[i] == keys[i + 1] && lexless((*run)[i + 1], (*run)[i]))) {
        sorted = false;
        break;
      }
    }
    if (!sorted) {
      std::vector<std::pair<uint64_t, VirtualNode>> dec(m);
      for (size_t i = 0; i < m; ++i) dec[i] = {keys[i], (*run)[i]};
      std::sort(dec.begin(), dec.end(),
                [&](const std::pair<uint64_t, VirtualNode>& x,
                    const std::pair<uint64_t, VirtualNode>& y) {
                  if (x.first != y.first) return x.first < y.first;
                  return lexless(x.second, y.second);
                });
      for (size_t i = 0; i < m; ++i) (*run)[i] = dec[i].second;
    }
    run->erase(std::unique(run->begin(), run->end()), run->end());
  };
  bool single_vtype = true;
  for (const VirtualNode& v : *nodes) {
    if (v.vtype != nodes->front().vtype) {
      single_vtype = false;
      break;
    }
  }
  if (single_vtype) {
    // Merge-join output arrives per-target in candidate order, so it is
    // usually already sorted — worth one linear precheck.
    sort_run(nodes);
    return;
  }
  std::vector<std::vector<VirtualNode>> runs;
  {
    std::unordered_map<uint32_t, size_t> index;
    for (const VirtualNode& v : *nodes) {
      auto [it, inserted] = index.emplace(v.vtype, runs.size());
      if (inserted) runs.emplace_back();
      runs[it->second].push_back(v);
    }
  }
  for (std::vector<VirtualNode>& run : runs) {
    sort_run(&run);
  }
  if (runs.size() == 1) {
    *nodes = std::move(runs.front());
    return;
  }
  // K-way merge on run heads (k = distinct vtypes, small). Heads of
  // different vtypes never compare equivalent — a vPBN names one node —
  // so the min pick, and with it the output, is deterministic.
  nodes->clear();
  std::vector<size_t> pos(runs.size(), 0);
  for (;;) {
    size_t best = runs.size();
    for (size_t r = 0; r < runs.size(); ++r) {
      if (pos[r] == runs[r].size()) continue;
      if (best == runs.size() || vless(runs[r][pos[r]], runs[best][pos[best]])) {
        best = r;
      }
    }
    if (best == runs.size()) break;
    nodes->push_back(runs[best][pos[best]++]);
  }
}

}  // namespace vpbn::virt
