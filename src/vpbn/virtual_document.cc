#include "vpbn/virtual_document.h"

#include <algorithm>
#include <cstdint>

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

/// SortVirtualOrder's working storage, one per thread and reused across
/// calls: per-node child expansions sort a few nodes of two or three
/// vtypes per call, where fresh allocations would cost more than the sort
/// itself. Only `keys` grows with the input (the rest with the number of
/// vtypes), and Trim releases it after a large sort, so a thread keeps a
/// few kilobytes between calls.
struct SortScratch {
  struct Run {
    size_t next = 0, end = 0;  // the run's keys still to emit
    size_t slot = 0;           // offset of its head's components in comps
    VpbnView head;
  };
  static constexpr size_t kRetainedKeys = 4096;
  std::vector<vdg::VTypeId> run_vtypes;
  std::vector<uint64_t> keys;  // (run << 32) | row
  std::vector<Run> runs;
  std::vector<uint32_t> comps;

  void Trim() {
    if (keys.capacity() > kRetainedKeys) std::vector<uint64_t>().swap(keys);
  }
};

SortScratch& ThreadSortScratch() {
  thread_local SortScratch scratch;
  return scratch;
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
  xml::NodeId scope = x;
  for (size_t up = orig.length(tx) - orig.length(z); up > 0; --up) {
    scope = stored_->doc().parent(scope);
  }
  auto [first, last] = stored_->TypeRangeWithin(ty, stored_->NumberOf(scope));
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
  std::vector<uint32_t> xbuf, cbuf;
  const VpbnView vx = VpbnOf(v, &xbuf);
  for (const VirtualNode& c : candidates) {
    if (space_.VParent(VpbnOf(c, &cbuf), vx)) out.push_back(c);
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
      std::vector<uint32_t> xbuf, cbuf;
      const VpbnView vx = VpbnOf(v, &xbuf);
      for (vdg::VTypeId t = 0; t < vguide_->num_vtypes(); ++t) {
        for (const VirtualNode& cand : NodesOfVType(t)) {
          const VpbnView c = VpbnOf(cand, &cbuf);
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
      std::vector<uint32_t> xbuf, cbuf;
      const VpbnView vx = VpbnOf(v, &xbuf);
      for (const VirtualNode& cand : sibs) {
        if (cand == v) continue;
        auto cmp = space_.VCompare(VpbnOf(cand, &cbuf), vx);
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
  if (nodes->size() <= 1) return;
  // Merge-join output and per-node axis results mostly arrive as one
  // vtype in ascending rows: settle that without copying anything.
  {
    const vdg::VTypeId vtype = nodes->front().vtype;
    uint32_t prev = stored_->RowOfNode(nodes->front().node);
    size_t i = 1;
    for (; i < nodes->size(); ++i) {
      const VirtualNode& v = (*nodes)[i];
      const uint32_t row = stored_->RowOfNode(v.node);
      if (v.vtype != vtype || row <= prev) break;
      prev = row;
    }
    if (i == nodes->size()) return;
  }
  // One run per vtype, numbered in order of first appearance (k = distinct
  // vtypes, small). Keying each node by (run, row) sorts every run by row
  // in one integer sort, and equal keys are the same virtual node.
  SortScratch& scratch = ThreadSortScratch();
  std::vector<vdg::VTypeId>& run_vtypes = scratch.run_vtypes;
  std::vector<uint64_t>& keys = scratch.keys;
  run_vtypes.clear();
  keys.clear();
  for (const VirtualNode& v : *nodes) {
    const size_t r =
        std::find(run_vtypes.begin(), run_vtypes.end(), v.vtype) -
        run_vtypes.begin();
    if (r == run_vtypes.size()) run_vtypes.push_back(v.vtype);
    keys.push_back((uint64_t{r} << 32) | stored_->RowOfNode(v.node));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  auto row_of = [&](uint64_t key) { return static_cast<uint32_t>(key); };
  auto node_of = [&](uint64_t key) {
    const vdg::VTypeId vtype = run_vtypes[key >> 32];
    return VirtualNode{
        stored_->NodeIdsOfType(vguide_->original(vtype))[row_of(key)], vtype};
  };
  nodes->clear();
  nodes->reserve(keys.size());
  if (run_vtypes.size() == 1) {
    for (uint64_t key : keys) nodes->push_back(node_of(key));
  } else {
    // K-way merge of the runs, now contiguous in `keys`. Each head's
    // number is decoded once, into its run's slot of one buffer (every
    // instance of a type has the type's length). Heads of different vtypes
    // never compare equivalent — a vPBN names one node — so the min pick,
    // and with it the output, is deterministic.
    const dg::DataGuide& orig = stored_->dataguide();
    std::vector<SortScratch::Run>& runs = scratch.runs;
    runs.assign(run_vtypes.size(), SortScratch::Run{});
    size_t slots = 0;
    for (size_t i = 0, r = 0; r < runs.size(); ++r) {
      runs[r].next = i;
      while (i < keys.size() && (keys[i] >> 32) == r) ++i;
      runs[r].end = i;
      runs[r].slot = slots;
      slots += orig.length(vguide_->original(run_vtypes[r]));
    }
    scratch.comps.resize(slots);
    auto load_head = [&](size_t r) {
      SortScratch::Run& run = runs[r];
      if (run.next == run.end) return;
      const vdg::VTypeId vtype = run_vtypes[r];
      num::PackedPbnRef::ComponentIterator it(stored_->PackedNodesOfType(
          vguide_->original(vtype))[row_of(keys[run.next])]);
      uint32_t* out = scratch.comps.data() + run.slot;
      uint32_t len = 0;
      while (it.HasNext()) out[len++] = it.Next();
      run.head = VpbnView(out, len, vtype);
    };
    for (size_t r = 0; r < runs.size(); ++r) load_head(r);
    for (;;) {
      size_t best = runs.size();
      for (size_t r = 0; r < runs.size(); ++r) {
        if (runs[r].next == runs[r].end) continue;
        if (best == runs.size() ||
            space_.VCompare(runs[r].head, runs[best].head) ==
                std::weak_ordering::less) {
          best = r;
        }
      }
      if (best == runs.size()) break;
      nodes->push_back(node_of(keys[runs[best].next++]));
      load_head(best);
    }
  }
  scratch.Trim();
}

}  // namespace vpbn::virt
