#include "query/eval_virtual.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "pbn/packed.h"
#include "pbn/structural_join.h"
#include "query/cardinality.h"
#include "query/cost_model.h"

namespace vpbn::query {

using virt::VirtualNode;

namespace {

/// Cache key for ExecContext::Cached: the test kind byte plus the
/// name (only kName tests have one, the others collapse per kind).
std::string TestCacheKey(const NodeTest& test) {
  std::string key(1, static_cast<char>('0' + static_cast<int>(test.kind)));
  key += test.name;
  return key;
}

}  // namespace

/// One vtype's slice of the context: which context positions it occupies
/// and their PBNs as a flat column. Within one vtype the context
/// subsequence is already in document order, and equal-typed instances
/// have equal-length numbers, so the column is lexicographically sorted —
/// exactly what MergeCompatiblePairs requires of its inputs.
struct VirtualAdapter::ContextGroup {
  vdg::VTypeId vtype = vdg::kNullVType;
  std::vector<uint32_t> slots;  ///< context indexes, ascending
  num::DecodedPbnColumn col;    ///< context numbers, same order
};

/// How one context vtype answers a recognized [path op literal]
/// predicate, resolved once per (predicate, context vtype) and execution.
/// The chain's terminal vtypes pair with the context vtype under the rules
/// BatchAxisImpl merges by:
///   * a single child step whose two original types have no common
///     ancestor type carries no instances — the pair is dropped;
///   * a multi-step or descendant pair is merged only when ChainSafe and
///     no link of its vtype path has a null original LCA;
///   * every terminal vtype needs a value column.
/// Anything else leaves `covered` false and the call to the per-node path.
struct VirtualAdapter::PredPairs {
  bool covered = true;
  double est_witnesses = 0;  ///< ColumnSelectivity x rows, over the pairs
  size_t terminal_rows = 0;  ///< instances of the terminal vtypes
  std::vector<std::pair<vdg::VTypeId, virt::VPairMergePlan>> pairs;
};

/// One unit of batched axis work: merge the group's context column against
/// one result vtype's instance column (target != kNullVType), or run the
/// exact per-node chain expansion for every type the merges could not
/// cover (target == kNullVType). Tasks run in enumeration order and append
/// to one hit list.
struct VirtualAdapter::JoinTask {
  const ContextGroup* group = nullptr;
  vdg::VTypeId target = vdg::kNullVType;
  bool reach_filter = false;  ///< drop candidates the bitmap marks orphaned
};

bool VirtualAdapter::VTypeMatches(vdg::VTypeId t, const NodeTest& test) const {
  const vdg::VDataGuide& vg = vdoc_->vguide();
  return test.Matches(!vg.IsTextVType(t), vg.label(t));
}

std::shared_ptr<const std::vector<vdg::VTypeId>> VirtualAdapter::MatchingVTypes(
    const NodeTest& test) const {
  auto build = [this, &test] {
    const vdg::VDataGuide& vg = vdoc_->vguide();
    std::vector<vdg::VTypeId> out;
    for (vdg::VTypeId t = 0; t < vg.num_vtypes(); ++t) {
      if (VTypeMatches(t, test)) out.push_back(t);
    }
    return out;
  };
  if (ctx_ != nullptr) {
    return ctx_->Cached<std::vector<vdg::VTypeId>>(TestCacheKey(test), build);
  }
  return std::make_shared<const std::vector<vdg::VTypeId>>(build());
}

std::vector<VirtualNode> VirtualAdapter::DocumentRoots(
    const NodeTest& test) const {
  const vdg::VDataGuide& vg = vdoc_->vguide();
  std::vector<VirtualNode> out;
  for (vdg::VTypeId rt : vg.roots()) {
    if (!VTypeMatches(rt, test)) continue;
    const std::vector<xml::NodeId>& ids =
        vdoc_->stored().NodeIdsOfType(vg.original(rt));
    out.reserve(out.size() + ids.size());
    for (xml::NodeId id : ids) out.push_back(VirtualNode{id, rt});
  }
  return out;
}

std::vector<VirtualNode> VirtualAdapter::AllNodes(const NodeTest& test) const {
  const vdg::VDataGuide& vg = vdoc_->vguide();
  std::vector<VirtualNode> out;
  const auto types = MatchingVTypes(test);  // keep the cache entry alive
  for (vdg::VTypeId t : *types) {
    const std::vector<xml::NodeId>& ids =
        vdoc_->stored().NodeIdsOfType(vg.original(t));
    // Orphans (instances with no virtual-parent chain) are not part of
    // the virtual document; the memoized bitmap answers per index.
    const std::vector<uint8_t>* bm = vdoc_->ReachableBitmap(t);
    out.reserve(out.size() + ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      if (bm == nullptr || (*bm)[i] != 0) {
        out.push_back(VirtualNode{ids[i], t});
      }
    }
  }
  return out;
}

bool VirtualAdapter::ChainSafe(vdg::VTypeId top, vdg::VTypeId bottom) const {
  // The pure-number descendant join is exact when every intermediate
  // virtual type strictly between `top` and `bottom` has an original type
  // that is an ancestor-or-self of `bottom`'s original: the intermediate
  // instance is then a prefix of the candidate's number, so it exists and
  // is compatible with both endpoints. Otherwise a predicate hit could
  // rely on an intermediate instance that does not exist, and the
  // evaluator must expand actual chains instead.
  const vdg::VDataGuide& vg = vdoc_->vguide();
  const dg::DataGuide& orig = vg.original_guide();
  for (vdg::VTypeId i = vg.parent(bottom); i != top; i = vg.parent(i)) {
    if (i == vdg::kNullVType) return false;  // bottom not under top
    if (!orig.IsAncestorOrSelfType(vg.original(i), vg.original(bottom))) {
      return false;
    }
  }
  return true;
}

void VirtualAdapter::DescendantWalkUnsafe(const VirtualNode& n,
                                          const NodeTest& test,
                                          std::vector<VirtualNode>* out) const {
  // Exact expansion through actual virtual children; safe types are the
  // merge joins' (or Axis's own joins') responsibility and are skipped.
  std::vector<VirtualNode> frontier = vdoc_->Children(n);
  while (!frontier.empty()) {
    std::vector<VirtualNode> next;
    for (const VirtualNode& c : frontier) {
      if (VTypeMatches(c.vtype, test) && !ChainSafe(n.vtype, c.vtype)) {
        out->push_back(c);
      }
      std::vector<VirtualNode> down = vdoc_->Children(c);
      next.insert(next.end(), down.begin(), down.end());
    }
    vdoc_->SortVirtualOrder(&next);
    frontier = std::move(next);
  }
}

void VirtualAdapter::AncestorWalkUnsafe(const VirtualNode& n,
                                        const NodeTest& test,
                                        std::vector<VirtualNode>* out) const {
  // Mirror of VirtualDocument::AxisNodes(kAncestor): climb actual
  // (reachable) parent chains, but emit only types the merges do not
  // cover. ChainSafe types are excluded even when their merge was skipped
  // for an impassable link — the climb cannot reach them anyway.
  std::vector<VirtualNode> frontier;
  for (const VirtualNode& p : vdoc_->Parents(n)) {
    if (vdoc_->IsReachable(p)) frontier.push_back(p);
  }
  while (!frontier.empty()) {
    std::vector<VirtualNode> next;
    for (const VirtualNode& p : frontier) {
      if (VTypeMatches(p.vtype, test) && !ChainSafe(p.vtype, n.vtype)) {
        out->push_back(p);
      }
      for (const VirtualNode& gp : vdoc_->Parents(p)) {
        if (vdoc_->IsReachable(gp)) next.push_back(gp);
      }
    }
    vdoc_->SortVirtualOrder(&next);
    frontier = std::move(next);
  }
}

void VirtualAdapter::RunJoinTask(
    const JoinTask& task, const std::vector<VirtualNode>& context,
    num::Axis axis, const NodeTest& test,
    std::vector<std::pair<uint32_t, VirtualNode>>* hits,
    num::JoinCounters* counters) const {
  const ContextGroup& g = *task.group;
  if (task.target == vdg::kNullVType) {
    // Fallback: exact chain expansion per context node of the group.
    const bool desc = axis == num::Axis::kDescendant ||
                      axis == num::Axis::kDescendantOrSelf;
    std::vector<VirtualNode> out;
    for (uint32_t slot : g.slots) {
      out.clear();
      if (desc) {
        DescendantWalkUnsafe(context[slot], test, &out);
      } else {
        AncestorWalkUnsafe(context[slot], test, &out);
      }
      // A node reachable through two placement chains is walked twice;
      // dedup here so every task's hit list — and with it each slot — is
      // duplicate-free (the BatchAxis contract).
      vdoc_->SortVirtualOrder(&out);
      for (const VirtualNode& n : out) hits->emplace_back(slot, n);
    }
    return;
  }
  const vdg::VDataGuide& vg = vdoc_->vguide();
  const dg::DataGuide& orig = vg.original_guide();
  const dg::TypeId ot = vg.original(task.target);
  bool built = false;
  const num::DecodedPbnColumn& cand = vdoc_->DecodedNodesOfType(ot, &built);
  if (built) counters->decoded_batches += 1;
  const std::vector<xml::NodeId>& ids = vdoc_->stored().NodeIdsOfType(ot);
  const virt::VPairMergePlan plan = vdoc_->space().PlanPairMerge(
      g.vtype, task.target, orig.length(vg.original(g.vtype)),
      orig.length(ot));
  const std::vector<uint8_t>* bm =
      task.reach_filter ? vdoc_->ReachableBitmap(task.target) : nullptr;
  virt::MergeCompatiblePairs(
      plan, g.col, cand, counters, [&](size_t xi, size_t yi) {
        if (bm != nullptr && (*bm)[yi] == 0) return;
        hits->emplace_back(g.slots[xi], VirtualNode{ids[yi], task.target});
      });
}

bool VirtualAdapter::BatchAxis(const std::vector<VirtualNode>& context,
                               num::Axis axis, const NodeTest& test,
                               std::vector<std::vector<VirtualNode>>* slots)
    const {
  return BatchAxisImpl(context, axis, test, slots, nullptr);
}

bool VirtualAdapter::BatchAxisFlat(const std::vector<VirtualNode>& context,
                                   num::Axis axis, const NodeTest& test,
                                   std::vector<VirtualNode>* out) const {
  return BatchAxisImpl(context, axis, test, nullptr, out);
}

bool VirtualAdapter::BatchAxisImpl(const std::vector<VirtualNode>& context,
                                   num::Axis axis, const NodeTest& test,
                                   std::vector<std::vector<VirtualNode>>* slots,
                                   std::vector<VirtualNode>* flat) const {
  using num::Axis;
  if (context.empty()) return false;
  const bool desc =
      axis == Axis::kDescendant || axis == Axis::kDescendantOrSelf;
  const bool anc = axis == Axis::kAncestor || axis == Axis::kAncestorOrSelf;
  if (!desc && !anc && axis != Axis::kChild && axis != Axis::kParent) {
    return false;
  }
  // The descendant family already scans whole candidate lists per context
  // node, so merging wins at any context size. Child / parent / ancestor
  // trade sublinear per-node range scans for full-list merges, a trade the
  // cost model weighs against the actual candidate volume
  // (CostModel::MergeBeatsWalk). The ExecContext test pin forces the merge
  // so tiny documents exercise it.
  if (!desc && (ctx_ == nullptr || !ctx_->force_vjoin_merge())) {
    const vdg::VDataGuide& cvg = vdoc_->vguide();
    const auto types = MatchingVTypes(test);  // keep the cache entry alive
    size_t candidates = 0;
    for (vdg::VTypeId t : *types) {
      candidates += vdoc_->stored().NodeIdsOfType(cvg.original(t)).size();
    }
    CostModel cm(vdoc_->stored());
    if (!cm.MergeBeatsWalk(context.size(), candidates)) return false;
  }

  const vdg::VDataGuide& vg = vdoc_->vguide();
  const dg::DataGuide& orig = vg.original_guide();

  if (slots != nullptr) slots->assign(context.size(), {});
  if (axis == Axis::kDescendantOrSelf || axis == Axis::kAncestorOrSelf) {
    for (size_t i = 0; i < context.size(); ++i) {
      if (VTypeMatches(context[i].vtype, test)) {
        if (slots != nullptr) {
          (*slots)[i].push_back(context[i]);
        } else {
          flat->push_back(context[i]);
        }
      }
    }
  }

  // Partition the context by vtype, preserving order (see ContextGroup).
  std::vector<std::unique_ptr<ContextGroup>> groups;
  {
    std::unordered_map<uint32_t, ContextGroup*> index;
    std::vector<uint32_t> buf;
    for (size_t i = 0; i < context.size(); ++i) {
      auto [it, inserted] = index.emplace(context[i].vtype, nullptr);
      if (inserted) {
        groups.push_back(std::make_unique<ContextGroup>());
        groups.back()->vtype = context[i].vtype;
        it->second = groups.back().get();
      }
      ContextGroup& g = *it->second;
      g.slots.push_back(static_cast<uint32_t>(i));
      vdoc_->stored().NumberOf(context[i].node).DecodeTo(&buf);
      g.col.Append(buf.data(), static_cast<uint32_t>(buf.size()));
    }
  }

  // One task per (context vtype, result vtype) pair the type forest can
  // produce, in deterministic enumeration order. Divergences between the
  // number predicates and actual placement are resolved here, pair by
  // pair, so merge results equal the per-candidate path exactly:
  //   * a null original LCA makes the child/parent placement relation
  //     empty while the number predicate is vacuously true — skip;
  //   * an ancestor chain with a null-LCA link is impassable for the
  //     parent-chain walk — stop enumerating at the break;
  //   * a not-ChainSafe pair may rely on intermediate instances that do
  //     not exist — leave it to the exact walk fallback.
  std::vector<JoinTask> tasks;
  for (const std::unique_ptr<ContextGroup>& gp : groups) {
    const ContextGroup& g = *gp;
    const vdg::VTypeId ct = g.vtype;
    const dg::TypeId cot = vg.original(ct);
    switch (axis) {
      case Axis::kChild:
        for (vdg::VTypeId t : vg.children(ct)) {
          if (!VTypeMatches(t, test)) continue;
          if (orig.LcaType(cot, vg.original(t)) == dg::kNullType) continue;
          tasks.push_back({&g, t, false});
        }
        break;
      case Axis::kParent: {
        const vdg::VTypeId pt = vg.parent(ct);
        if (pt != vdg::kNullVType && VTypeMatches(pt, test) &&
            orig.LcaType(cot, vg.original(pt)) != dg::kNullType) {
          tasks.push_back({&g, pt, !vdoc_->IsGuaranteedReachable(pt)});
        }
        break;
      }
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf: {
        bool need_walk = false;
        std::vector<vdg::VTypeId> stack(vg.children(ct).rbegin(),
                                        vg.children(ct).rend());
        while (!stack.empty()) {
          const vdg::VTypeId dt = stack.back();
          stack.pop_back();
          for (auto it = vg.children(dt).rbegin();
               it != vg.children(dt).rend(); ++it) {
            stack.push_back(*it);
          }
          if (!VTypeMatches(dt, test)) continue;
          if (ChainSafe(ct, dt)) {
            tasks.push_back({&g, dt, false});
          } else {
            need_walk = true;
          }
        }
        if (need_walk) tasks.push_back({&g, vdg::kNullVType, false});
        break;
      }
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf: {
        bool need_walk = false;
        vdg::VTypeId prev = ct;
        for (vdg::VTypeId at = vg.parent(ct); at != vdg::kNullVType;
             prev = at, at = vg.parent(at)) {
          if (orig.LcaType(vg.original(at), vg.original(prev)) ==
              dg::kNullType) {
            break;  // impassable link: nothing at or above is an ancestor
          }
          if (!VTypeMatches(at, test)) continue;
          if (ChainSafe(at, ct)) {
            tasks.push_back({&g, at, !vdoc_->IsGuaranteedReachable(at)});
          } else {
            need_walk = true;
          }
        }
        if (need_walk) tasks.push_back({&g, vdg::kNullVType, false});
        break;
      }
      default:
        break;
    }
  }
  if (tasks.empty()) return true;  // slots may still hold -or-self seeds

  std::vector<std::pair<uint32_t, VirtualNode>> hits;
  num::JoinCounters counters;
  for (const JoinTask& task : tasks) {
    RunJoinTask(task, context, axis, test, &hits, &counters);
  }

  if (ctx_ != nullptr) {
    ctx_->stats().pbn_comparisons += counters.comparisons;
    ctx_->stats().bytes_compared += counters.bytes_compared;
    ctx_->stats().vjoin_pairs += counters.vjoin_pairs;
    ctx_->stats().decoded_batches += counters.decoded_batches;
    ctx_->stats().block_skips += counters.block_skips;
  }

  // Task order is deterministic and the caller sorts downstream (per slot
  // or over the flattened list).
  if (slots != nullptr) {
    for (const auto& [slot, node] : hits) (*slots)[slot].push_back(node);
  } else {
    flat->reserve(flat->size() + hits.size());
    for (const auto& [slot, node] : hits) flat->push_back(node);
  }
  return true;
}

std::vector<VirtualNode> VirtualAdapter::Axis(const VirtualNode& n,
                                              num::Axis axis,
                                              const NodeTest& test) const {
  using num::Axis;
  const vdg::VDataGuide& vg = vdoc_->vguide();
  const virt::VpbnSpace& space = vdoc_->space();
  std::vector<VirtualNode> out;
  std::vector<uint32_t> nbuf;
  const virt::VpbnView vview = vdoc_->VpbnOf(n, &nbuf);
  switch (axis) {
    case Axis::kSelf:
      if (VTypeMatches(n.vtype, test)) out.push_back(n);
      break;
    case Axis::kChild:
      // The placement relation enumerates exactly the virtual children of
      // each child virtual type (containment scans / prefix lookups).
      for (vdg::VTypeId ct : vg.children(n.vtype)) {
        if (!VTypeMatches(ct, test)) continue;
        std::vector<VirtualNode> related = vdoc_->RelatedInstances(n.node, ct);
        out.insert(out.end(), related.begin(), related.end());
      }
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      if (axis == Axis::kDescendantOrSelf && VTypeMatches(n.vtype, test)) {
        out.push_back(n);
      }
      // vPBN structural join per descendant type (Theorem 1) when the
      // intermediate chain provably exists; otherwise fall back to actual
      // chain expansion for the unsafe types.
      bool need_bfs = false;
      std::vector<vdg::VTypeId> stack(vg.children(n.vtype).rbegin(),
                                      vg.children(n.vtype).rend());
      while (!stack.empty()) {
        vdg::VTypeId dt = stack.back();
        stack.pop_back();
        for (auto it = vg.children(dt).rbegin(); it != vg.children(dt).rend();
             ++it) {
          stack.push_back(*it);
        }
        if (!VTypeMatches(dt, test)) continue;
        if (!ChainSafe(n.vtype, dt)) {
          need_bfs = true;
          continue;
        }
        // Stream the packed arena of the type's instances (aligned with
        // the NodeId column): each candidate is decoded once into the
        // reused buffer and tested without materializing a Pbn.
        const storage::StoredDocument& sd = vdoc_->stored();
        const num::PackedPbnList& packed =
            sd.PackedNodesOfType(vg.original(dt));
        const std::vector<xml::NodeId>& ids =
            sd.NodeIdsOfType(vg.original(dt));
        std::vector<uint32_t> buf;
        for (size_t i = 0; i < packed.size(); ++i) {
          virt::VpbnView cv = virt::DecodeView(packed[i], dt, &buf);
          if (space.VDescendant(cv, vview)) {
            out.push_back(VirtualNode{ids[i], dt});
          }
        }
      }
      if (need_bfs) {
        DescendantWalkUnsafe(n, test, &out);
      }
      break;
    }
    case Axis::kParent: {
      // AxisNodes filters out orphaned parent instances.
      for (const VirtualNode& p : vdoc_->AxisNodes(n, Axis::kParent)) {
        if (VTypeMatches(p.vtype, test)) out.push_back(p);
      }
      break;
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      // Exact: walk actual parent chains (an instance of an ancestor type
      // is only an ancestor if a chain of placements connects it).
      for (const VirtualNode& a : vdoc_->AxisNodes(n, axis)) {
        if (VTypeMatches(a.vtype, test)) out.push_back(a);
      }
      break;
    }
    case Axis::kFollowing:
    case Axis::kPreceding: {
      const storage::StoredDocument& sd = vdoc_->stored();
      std::vector<uint32_t> buf;
      const auto types = MatchingVTypes(test);  // keep the cache entry alive
      for (vdg::VTypeId t : *types) {
        const num::PackedPbnList& packed =
            sd.PackedNodesOfType(vg.original(t));
        const std::vector<xml::NodeId>& ids = sd.NodeIdsOfType(vg.original(t));
        for (size_t i = 0; i < packed.size(); ++i) {
          virt::VpbnView cv = virt::DecodeView(packed[i], t, &buf);
          bool hit = axis == Axis::kFollowing ? space.VFollowing(cv, vview)
                                              : space.VPreceding(cv, vview);
          if (!hit) continue;
          VirtualNode cand{ids[i], t};
          if (vdoc_->IsReachable(cand)) out.push_back(cand);
        }
      }
      break;
    }
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      // Exact: siblings are children of the node's actual parents.
      for (const VirtualNode& s : vdoc_->AxisNodes(n, axis)) {
        if (VTypeMatches(s.vtype, test)) out.push_back(s);
      }
      break;
    }
    case Axis::kAttribute:
      break;
  }
  return out;
}

std::vector<vdg::VTypeId> VirtualAdapter::ResolveChainVTypes(
    vdg::VTypeId ct, const Path& path) const {
  const vdg::VDataGuide& vg = vdoc_->vguide();
  std::vector<vdg::VTypeId> frontier{ct};
  std::vector<char> seen;
  for (const Step& step : path.steps) {
    seen.assign(vg.num_vtypes(), 0);
    std::vector<vdg::VTypeId> next;
    auto add = [&](vdg::VTypeId t) {
      if (!seen[t]) {
        seen[t] = 1;
        next.push_back(t);
      }
    };
    for (vdg::VTypeId t : frontier) {
      if (step.axis == num::Axis::kChild) {
        for (vdg::VTypeId c : vg.children(t)) {
          if (VTypeMatches(c, step.test)) add(c);
        }
        continue;
      }
      // kDescendant, or the anonymous '//' (IsPredicateFreeChain screens
      // the rest), which keeps the frontier type itself too.
      if (step.axis == num::Axis::kDescendantOrSelf) add(t);
      std::vector<vdg::VTypeId> stack(vg.children(t).begin(),
                                      vg.children(t).end());
      while (!stack.empty()) {
        const vdg::VTypeId d = stack.back();
        stack.pop_back();
        if (VTypeMatches(d, step.test)) add(d);
        stack.insert(stack.end(), vg.children(d).begin(),
                     vg.children(d).end());
      }
    }
    frontier = std::move(next);
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

std::shared_ptr<const VirtualAdapter::PredPairs>
VirtualAdapter::ResolvePredPairs(const Expr& pred, const ValuePred& vp,
                                 vdg::VTypeId ct) const {
  auto build = [&] {
    const vdg::VDataGuide& vg = vdoc_->vguide();
    const dg::DataGuide& orig = vg.original_guide();
    const bool one_child_step = vp.path->steps.size() == 1 &&
                                vp.path->steps[0].axis == num::Axis::kChild;
    PredPairs out;
    for (vdg::VTypeId tt : ResolveChainVTypes(ct, *vp.path)) {
      const dg::TypeId ot = vg.original(tt);
      if (one_child_step) {
        if (orig.LcaType(vg.original(ct), ot) == dg::kNullType) continue;
      } else {
        for (vdg::VTypeId c = tt; c != ct; c = vg.parent(c)) {
          if (orig.LcaType(vg.original(vg.parent(c)), vg.original(c)) ==
              dg::kNullType) {
            out.covered = false;
          }
        }
        if (!ChainSafe(ct, tt)) out.covered = false;
      }
      const idx::TypeColumn* col = vdoc_->ValueColumn(tt);
      if (col == nullptr) out.covered = false;
      if (!out.covered) return out;
      virt::VPairMergePlan plan = vdoc_->space().PlanPairMerge(
          ct, tt, orig.length(vg.original(ct)), orig.length(ot));
      if (plan.impossible) continue;
      // Without a merge prefix every context node meets every witness, so
      // residual checks would be a cross product no span can bound.
      if (plan.merge_prefix == 0 && !plan.residual.empty()) {
        out.covered = false;
        return out;
      }
      out.est_witnesses +=
          CardinalityEstimator::ColumnSelectivity(*col, vp.op, vp.lit) *
          static_cast<double>(col->stats.row_count);
      out.terminal_rows += col->stats.row_count;
      out.pairs.emplace_back(tt, std::move(plan));
    }
    return out;
  };
  if (ctx_ == nullptr) return std::make_shared<const PredPairs>(build());
  return ctx_->Cached<PredPairs>(ExecContext::MemoKey('p', &pred, ct), build);
}

std::shared_ptr<const num::DecodedPbnColumn> VirtualAdapter::Witnesses(
    const Expr& pred, const ValuePred& vp, vdg::VTypeId tt) const {
  // Keyed by vtype, not by original type: an intact vtype reads the stored
  // column and a non-intact vtype of the same original its own assembled
  // one, so their matching rows differ.
  auto build = [&] {
    const idx::TypeColumn& col = *vdoc_->ValueColumn(tt);
    const std::vector<uint32_t> rows =
        CollectMatchingRows(col, vp.op, vp.lit, ctx_);
    const num::PackedPbnList& packed =
        vdoc_->stored().PackedNodesOfType(vdoc_->vguide().original(tt));
    num::DecodedPbnColumn out;
    std::vector<uint32_t> buf;
    for (uint32_t row : rows) {
      packed[row].DecodeTo(&buf);
      out.Append(buf.data(), static_cast<uint32_t>(buf.size()));
    }
    return out;
  };
  if (ctx_ == nullptr) {
    return std::make_shared<const num::DecodedPbnColumn>(build());
  }
  return ctx_->Cached<num::DecodedPbnColumn>(
      ExecContext::MemoKey('w', &pred, tt), build);
}

bool VirtualAdapter::BatchPredicate(const Expr& pred,
                                    const std::vector<VirtualNode>& nodes,
                                    std::vector<char>* keep) const {
  ValuePred vp;
  if (!RecognizeValuePred(pred, &vp)) return false;
  switch (vp.kind) {
    case ValuePred::Kind::kPathCompare:
      return PathPredicate(pred, vp, nodes, keep);
    case ValuePred::Kind::kAttrCompare:
    case ValuePred::Kind::kAttrString:
      AttrPredicate(vp, nodes, keep);
      return true;
    case ValuePred::Kind::kPathString:
      break;
  }
  return false;
}

bool VirtualAdapter::PathPredicate(const Expr& pred, const ValuePred& vp,
                                   const std::vector<VirtualNode>& nodes,
                                   std::vector<char>* keep) const {
  // Partition by vtype. Each group must arrive in row order (the
  // evaluator hands over SortUnique'd lists, where one vtype's nodes are
  // in row order), since the merge reads its column as document-ordered.
  struct Group {
    vdg::VTypeId vtype;
    uint32_t last_row;
    std::shared_ptr<const PredPairs> pairs;
    std::vector<uint32_t> slots;
  };
  std::vector<Group> groups;
  const storage::StoredDocument& sd = vdoc_->stored();
  auto group_of = [&](vdg::VTypeId vtype) {
    return std::find_if(groups.begin(), groups.end(),
                        [&](const Group& g) { return g.vtype == vtype; });
  };
  for (const VirtualNode& n : nodes) {
    const uint32_t row = sd.RowOfNode(n.node);
    auto it = group_of(n.vtype);
    if (it == groups.end()) {
      groups.push_back(Group{n.vtype, row, nullptr, {}});
    } else if (row <= it->last_row) {
      return false;
    } else {
      it->last_row = row;
    }
  }
  double est_witnesses = 0;
  size_t terminal_rows = 0;
  for (Group& g : groups) {
    g.pairs = ResolvePredPairs(pred, vp, g.vtype);
    if (!g.pairs->covered) return false;
    est_witnesses += g.pairs->est_witnesses;
    terminal_rows = std::max(terminal_rows, g.pairs->terminal_rows);
  }
  CostModel cm(sd);
  if (!cm.WitnessBeatsPerNode(nodes.size(), vp.path->steps.size(),
                              est_witnesses, terminal_rows)) {
    return false;
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    group_of(nodes[i].vtype)->slots.push_back(static_cast<uint32_t>(i));
  }

  keep->assign(nodes.size(), 0);
  num::JoinCounters counters;
  uint64_t spans = 0;
  num::DecodedPbnColumn col;
  std::vector<uint32_t> buf;
  for (const Group& g : groups) {
    col.Clear();
    for (const auto& [tt, plan] : g.pairs->pairs) {
      const auto witnesses = Witnesses(pred, vp, tt);
      // An empty witness side answers without decoding any number.
      if (witnesses->empty()) continue;
      if (col.empty()) {
        for (uint32_t slot : g.slots) {
          sd.NumberOf(nodes[slot].node).DecodeTo(&buf);
          col.Append(buf.data(), static_cast<uint32_t>(buf.size()));
        }
      }
      const auto [first, last] = virt::CompatibleSpan(plan, col, *witnesses);
      ++spans;
      virt::SemiJoinCompatible(plan, col, *witnesses, first, last, &counters,
                               [&](size_t xi) { (*keep)[g.slots[xi]] = 1; });
    }
  }
  if (ctx_ != nullptr) {
    ctx_->stats().value_index_lookups += spans;
    ctx_->stats().pbn_comparisons += counters.comparisons;
    ctx_->stats().bytes_compared += counters.bytes_compared;
    ctx_->stats().vjoin_pairs += counters.vjoin_pairs;
  }
  return true;
}

void VirtualAdapter::AttrPredicate(const ValuePred& vp,
                                   const std::vector<VirtualNode>& nodes,
                                   std::vector<char>* keep) const {
  // Exactly the stored attribute branch (eval_bulk.cc ApplyValuePred): the
  // term at the node's row of its original type's attribute column. Text
  // nodes have no attribute column, so they read as absent, as
  // Attribute() reports them.
  const storage::StoredDocument& sd = vdoc_->stored();
  const idx::ValueIndex& vi = sd.value_index();
  const idx::Dictionary& dict = vi.dict();
  const bool is_compare = vp.kind == ValuePred::Kind::kAttrCompare;
  std::shared_ptr<const std::vector<uint8_t>> bitmap;
  if (!is_compare) bitmap = TermBitmap(dict, vp.str_fn, vp.lit.text, ctx_);
  keep->assign(nodes.size(), 0);
  dg::TypeId col_type = dg::kNullType;
  const idx::AttrColumn* col = nullptr;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const xml::NodeId id = nodes[i].node;
    if (sd.TypeOfNode(id) != col_type) {
      col_type = sd.TypeOfNode(id);
      col = vi.Attr(col_type, vp.attr);
    }
    const uint32_t term =
        col != nullptr ? col->term_ids[sd.RowOfNode(id)] : idx::kNoTerm;
    // A missing attribute coerces to "", which satisfies both string
    // functions exactly when the needle is empty.
    (*keep)[i] = is_compare ? TermMatches(dict, term, vp.op, vp.lit)
                 : term == idx::kNoTerm ? vp.lit.text.empty()
                                        : (*bitmap)[term] != 0;
  }
  if (ctx_ != nullptr) ctx_->stats().value_index_lookups += nodes.size();
}

void VirtualAdapter::SortUnique(std::vector<VirtualNode>* nodes) const {
  vdoc_->SortVirtualOrder(nodes);
}

std::string VirtualAdapter::StringValue(const VirtualNode& n) const {
  return vdoc_->StringValue(n);
}

std::optional<std::string_view> VirtualAdapter::FastStringValue(
    const VirtualNode& n) const {
  const idx::TypeColumn* col = vdoc_->ValueColumn(n.vtype);
  if (col == nullptr) return std::nullopt;
  if (ctx_ != nullptr) ++ctx_->stats().value_index_lookups;
  return col->dict->term(
      col->term_ids[vdoc_->stored().RowOfNode(n.node)]);
}

Result<std::string> VirtualAdapter::Attribute(const VirtualNode& n,
                                              const std::string& name) const {
  const xml::Document& doc = vdoc_->stored().doc();
  if (!doc.IsElement(n.node)) {
    return Status::NotFound("text node has no attributes");
  }
  return doc.AttributeValue(n.node, name);
}

Result<std::vector<VirtualNode>> EvalVirtual(
    const virt::VirtualDocument& vdoc, std::string_view path_text) {
  VPBN_ASSIGN_OR_RETURN(Path path, ParsePath(path_text));
  return EvalVirtual(vdoc, path);
}

Result<std::vector<VirtualNode>> EvalVirtual(
    const virt::VirtualDocument& vdoc, const Path& path, ExecContext* ctx) {
  VirtualAdapter adapter(vdoc, ctx);
  PathEvaluator<VirtualAdapter> evaluator(adapter, ctx);
  return evaluator.Eval(path);
}

}  // namespace vpbn::query
