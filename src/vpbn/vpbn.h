/// \file vpbn.h
/// \brief Virtual prefix-based numbers and the space they live in (§5).
///
/// A vPBN number is a PBN number coupled with a level array. Because the
/// level array is shared by every node of a virtual type (§5.2), a Vpbn here
/// is the pair (original PBN, virtual type); the level array is looked up
/// per type in the VpbnSpace. This is the paper's space optimization: "the
/// level arrays do not have to be stored with the numbers since the level
/// array can be stored with each type".
///
/// VpbnSpace bundles a vDataGuide with its level-array map and implements
/// every virtual axis predicate of §5 plus the virtual document-order
/// comparator. All predicates follow the paper's two-part form: a
/// number-level test on (PBN, level array) pairs and a type-level test in
/// the virtual type forest.

#pragma once

#include <compare>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "pbn/axis.h"
#include "pbn/packed.h"
#include "pbn/pbn.h"
#include "pbn/structural_join.h"
#include "vdg/vdataguide.h"
#include "vpbn/level_array.h"
#include "vpbn/level_array_builder.h"

namespace vpbn::virt {

/// \brief A virtual node reference: the node's original PBN number plus its
/// virtual type. The referenced Pbn must outlive the reference.
struct Vpbn {
  const num::Pbn* pbn = nullptr;
  vdg::VTypeId vtype = vdg::kNullVType;

  Vpbn() = default;
  Vpbn(const num::Pbn& p, vdg::VTypeId t) : pbn(&p), vtype(t) {}
};

/// \brief A borrowed, decoded view of a vPBN number: a raw component span
/// plus the virtual type. This is the packed-ref entry point into the axis
/// predicates — a PackedPbnRef from a columnar arena (pbn/packed.h) is
/// decoded once into a caller-owned buffer and then tested against many
/// candidates without materializing a heap Pbn per test. Every VpbnSpace
/// predicate has a VpbnView overload; the Vpbn overloads are thin wrappers
/// viewing the Pbn's own component storage.
struct VpbnView {
  const uint32_t* comps = nullptr;
  uint32_t len = 0;
  vdg::VTypeId vtype = vdg::kNullVType;

  VpbnView() = default;
  VpbnView(const num::Pbn& p, vdg::VTypeId t)
      : comps(p.components().data()),
        len(static_cast<uint32_t>(p.length())),
        vtype(t) {}
  VpbnView(const uint32_t* c, uint32_t n, vdg::VTypeId t)
      : comps(c), len(n), vtype(t) {}
  explicit VpbnView(const Vpbn& v) : VpbnView(*v.pbn, v.vtype) {}

  /// 1-based component access, matching the paper's x_n[i] notation.
  uint32_t at1(size_t i) const { return comps[i - 1]; }
  size_t length() const { return len; }
};

/// \brief Decode \p ref into \p buf (reused across calls) and view it as
/// the vPBN of virtual type \p t. The buffer must outlive the view.
inline VpbnView DecodeView(const num::PackedPbnRef& ref, vdg::VTypeId t,
                           std::vector<uint32_t>* buf) {
  ref.DecodeTo(buf);
  return VpbnView(buf->data(), static_cast<uint32_t>(buf->size()), t);
}

/// \brief The number-level compatibility test of one (vtype, vtype) pair,
/// compiled into a merge recipe.
///
/// NumbersCompatible(x, y) quantifies over the *aligned positions* of the
/// pair's two level arrays — the positions where the arrays carry the same
/// level. Those positions are fixed per type pair, so the per-instance test
/// splits into:
///
///   * `merge_prefix` — the longest leading run 1..k of aligned positions.
///     Compatibility on these is "the numbers share their first k
///     components", and because every instance of one DataGuide type has
///     the same number length, equal-k-prefix instances are contiguous in
///     each type's document-ordered list: a linear two-pointer group merge
///     enumerates all compatible pairs.
///   * `residual` — aligned positions after a gap (non-prefix). Verified
///     per emitted pair. For every pair the virtual type forest can
///     produce (ancestor/descendant or parent/child virtual types) the
///     aligned set is provably a pure prefix, so this stays empty; it
///     exists for exactness should a future caller plan an unrelated pair.
///   * `impossible` — an aligned position beyond one side's (uniform)
///     number length: no instance pair can witness agreement there, so the
///     whole pair joins empty (a Case-2 context whose extra entry aligns).
struct VPairMergePlan {
  uint32_t merge_prefix = 0;
  std::vector<uint32_t> residual;  // 1-based positions, ascending
  bool impossible = false;
};

/// \brief The equal-prefix groups of two decoded, document-ordered columns
/// under \p plan, with \p ys restricted to the rows [y_first, y_last).
/// Calls group(xb, xe, yb, ye) for every pair of maximal runs xs[xb, xe)
/// and ys[yb, ye) that share their first plan.merge_prefix components,
/// in ascending order; residual positions are not checked here. Adds one
/// comparison per group-order decision and per group extension step to
/// \p *comparisons. A plan with merge_prefix == 0 has one group, the whole
/// of both ranges.
template <typename GroupSink>
void MergeCompatibleGroups(const VPairMergePlan& plan,
                           const num::DecodedPbnColumn& xs,
                           const num::DecodedPbnColumn& ys, size_t y_first,
                           size_t y_last, uint64_t* comparisons,
                           GroupSink&& group) {
  if (plan.impossible) return;
  const size_t nx = xs.size();
  if (nx == 0 || y_first >= y_last) return;
  const uint32_t k = plan.merge_prefix;
  if (k == 0) {
    group(size_t{0}, nx, y_first, y_last);
    return;
  }
  // Both columns are document-ordered and (per type) uniform-length, so
  // they are sorted lexicographically by components; equal-k-prefix groups
  // are contiguous runs on both sides. The merge walks packed 64-bit keys
  // of the first min(k, 2) components — flat columns built in one batched
  // pass per side — and touches the component arrays only when keys
  // collide (k > 2 prefixes sharing both lead values).
  const bool two = k >= 2;
  auto build_keys = [two](const num::DecodedPbnColumn& c, size_t first,
                          size_t last) {
    std::vector<uint64_t> keys(last - first);
    for (size_t i = first; i < last; ++i) {
      const uint32_t* a = c.comps(i);
      keys[i - first] =
          (static_cast<uint64_t>(a[0]) << 32) | (two ? a[1] : 0u);
    }
    return keys;
  };
  const std::vector<uint64_t> xk = build_keys(xs, 0, nx);
  const std::vector<uint64_t> yk = build_keys(ys, y_first, y_last);
  auto tail_cmp = [&](size_t xi, size_t yi) {
    const uint32_t* a = xs.comps(xi);
    const uint32_t* b = ys.comps(yi);
    for (uint32_t i = 2; i < k; ++i) {
      if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
    }
    return 0;
  };
  auto same_tail = [&](const uint32_t* a, const uint32_t* b) {
    for (uint32_t i = 2; i < k; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  };
  const size_t ny = y_last - y_first;
  size_t xi = 0, yj = 0;  // yj indexes yk; the ys row is y_first + yj
  while (xi < nx && yj < ny) {
    ++*comparisons;
    int c;
    if (xk[xi] != yk[yj]) {
      c = xk[xi] < yk[yj] ? -1 : 1;
    } else {
      c = k > 2 ? tail_cmp(xi, y_first + yj) : 0;
    }
    if (c < 0) {
      ++xi;
    } else if (c > 0) {
      ++yj;
    } else {
      size_t xe = xi + 1;
      while (xe < nx && xk[xe] == xk[xi] &&
             (k <= 2 || same_tail(xs.comps(xe), xs.comps(xi)))) {
        ++xe;
      }
      size_t ye = yj + 1;
      while (ye < ny && yk[ye] == yk[yj] &&
             (k <= 2 ||
              same_tail(ys.comps(y_first + ye), ys.comps(y_first + yj)))) {
        ++ye;
      }
      *comparisons += (xe - xi - 1) + (ye - yj - 1);
      group(xi, xe, y_first + yj, y_first + ye);
      xi = xe;
      yj = ye;
    }
  }
}

/// \brief Whether xs[xi] and ys[yi], already known to share their merge
/// prefix, agree on every residual position of \p plan. Adds one
/// comparison per position checked.
inline bool ResidualCompatible(const VPairMergePlan& plan,
                               const num::DecodedPbnColumn& xs, size_t xi,
                               const num::DecodedPbnColumn& ys, size_t yi,
                               uint64_t* comparisons) {
  for (uint32_t p : plan.residual) {
    ++*comparisons;
    if (p > xs.length(xi) || p > ys.length(yi)) return false;
    if (xs.comps(xi)[p - 1] != ys.comps(yi)[p - 1]) return false;
  }
  return true;
}

/// \brief Adds a merge's work to \p counters (optional): its comparisons,
/// the bytes they read (merge_prefix components of 4 bytes, or one for a
/// prefix-free plan) and the pairs it emitted.
inline void CountMerge(const VPairMergePlan& plan, uint64_t comparisons,
                       uint64_t pairs, num::JoinCounters* counters) {
  if (counters == nullptr) return;
  counters->comparisons += comparisons;
  counters->bytes_compared +=
      comparisons * 4 * (plan.merge_prefix == 0 ? 1 : plan.merge_prefix);
  counters->vjoin_pairs += pairs;
}

/// \brief All compatible index pairs between two decoded, document-ordered
/// columns under \p plan, by group merge on the plan's shared prefix.
/// Emits sink(xi, yi) for every pair with NumbersCompatible(x[xi], y[yi]);
/// pairs arrive grouped by x index ascending, y ascending within a group.
/// Counts one comparison per group-order decision (merge_prefix components
/// = 4 * merge_prefix bytes) plus one per residual check into \p counters
/// (optional). A plan with merge_prefix == 0 degenerates to the full cross
/// product, which is the correct answer (every position is unaligned).
template <typename Sink>
void MergeCompatiblePairs(const VPairMergePlan& plan,
                          const num::DecodedPbnColumn& xs,
                          const num::DecodedPbnColumn& ys,
                          num::JoinCounters* counters, Sink&& sink) {
  uint64_t comparisons = 0;
  uint64_t pairs = 0;
  MergeCompatibleGroups(
      plan, xs, ys, 0, ys.size(), &comparisons,
      [&](size_t xb, size_t xe, size_t yb, size_t ye) {
        for (size_t i = xb; i < xe; ++i) {
          for (size_t j = yb; j < ye; ++j) {
            if (ResidualCompatible(plan, xs, i, ys, j, &comparisons)) {
              ++pairs;
              sink(i, j);
            }
          }
        }
      });
  CountMerge(plan, comparisons, pairs, counters);
}

/// \brief The semi-join form of MergeCompatiblePairs: calls hit(xi) once
/// for every xs element with at least one compatible partner among
/// ys[y_first, y_last). Stops at the first partner of each element, so its
/// work is bounded by the two ranges, not by the pairs between them.
/// Counts the kept elements as vjoin_pairs.
template <typename Hit>
void SemiJoinCompatible(const VPairMergePlan& plan,
                        const num::DecodedPbnColumn& xs,
                        const num::DecodedPbnColumn& ys, size_t y_first,
                        size_t y_last, num::JoinCounters* counters, Hit&& hit) {
  uint64_t comparisons = 0;
  uint64_t kept = 0;
  MergeCompatibleGroups(
      plan, xs, ys, y_first, y_last, &comparisons,
      [&](size_t xb, size_t xe, size_t yb, size_t ye) {
        for (size_t i = xb; i < xe; ++i) {
          for (size_t j = yb; j < ye; ++j) {
            if (ResidualCompatible(plan, xs, i, ys, j, &comparisons)) {
              ++kept;
              hit(i);
              break;
            }
          }
        }
      });
  CountMerge(plan, comparisons, kept, counters);
}

/// \brief The rows [first, last) of \p ys that can be compatible with some
/// element of \p xs under \p plan: those whose first plan.merge_prefix
/// components lie between the prefixes of xs's first and last elements
/// (both columns document-ordered). All of \p ys when merge_prefix is 0.
/// Two binary searches, so a small context merges against only the
/// partners inside its span.
inline std::pair<size_t, size_t> CompatibleSpan(
    const VPairMergePlan& plan, const num::DecodedPbnColumn& xs,
    const num::DecodedPbnColumn& ys) {
  const uint32_t k = plan.merge_prefix;
  if (k == 0 || xs.empty()) return {0, ys.size()};
  auto prefix_cmp = [k](const uint32_t* a, const uint32_t* b) {
    for (uint32_t i = 0; i < k; ++i) {
      if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
    }
    return 0;
  };
  const uint32_t* lo_key = xs.comps(0);
  const uint32_t* hi_key = xs.comps(xs.size() - 1);
  auto partition = [&](size_t first, size_t last, auto&& below) {
    while (first < last) {
      const size_t mid = first + (last - first) / 2;
      if (below(ys.comps(mid))) {
        first = mid + 1;
      } else {
        last = mid;
      }
    }
    return first;
  };
  const size_t first = partition(0, ys.size(), [&](const uint32_t* y) {
    return prefix_cmp(y, lo_key) < 0;
  });
  const size_t last = partition(first, ys.size(), [&](const uint32_t* y) {
    return prefix_cmp(y, hi_key) <= 0;
  });
  return {first, last};
}

/// \brief The virtual numbering space of one vDataGuide.
class VpbnSpace {
 public:
  /// An empty space; unusable until move-assigned from Create().
  VpbnSpace() = default;

  /// Builds the level arrays (Algorithm 1) for \p guide. The guide must
  /// outlive the space.
  static Result<VpbnSpace> Create(const vdg::VDataGuide& guide);

  const vdg::VDataGuide& guide() const { return *guide_; }
  const LevelArrayMap& level_arrays() const { return arrays_; }
  const LevelArray& level_array(vdg::VTypeId t) const {
    return arrays_.of(t);
  }

  /// The node's virtual level: max(x_a).
  uint32_t VirtualLevel(const Vpbn& x) const {
    return arrays_.of(x.vtype).max();
  }
  uint32_t VirtualLevel(const VpbnView& x) const {
    return arrays_.of(x.vtype).max();
  }

  /// \name Virtual axis predicates (§5). Each answers "is x <axis> of y in
  /// the virtual hierarchy?". The VpbnView overloads carry the logic (and
  /// serve the packed query paths, which decode an arena ref once per
  /// candidate instead of materializing Pbns); the Vpbn overloads wrap.
  /// @{
  bool VSelf(const VpbnView& x, const VpbnView& y) const;
  bool VAncestor(const VpbnView& x, const VpbnView& y) const;
  bool VParent(const VpbnView& x, const VpbnView& y) const;
  bool VDescendant(const VpbnView& x, const VpbnView& y) const;
  bool VChild(const VpbnView& x, const VpbnView& y) const;
  bool VAncestorOrSelf(const VpbnView& x, const VpbnView& y) const;
  bool VDescendantOrSelf(const VpbnView& x, const VpbnView& y) const;
  bool VPreceding(const VpbnView& x, const VpbnView& y) const;
  bool VFollowing(const VpbnView& x, const VpbnView& y) const;
  bool VPrecedingSibling(const VpbnView& x, const VpbnView& y) const;
  bool VFollowingSibling(const VpbnView& x, const VpbnView& y) const;

  bool VSelf(const Vpbn& x, const Vpbn& y) const {
    return VSelf(VpbnView(x), VpbnView(y));
  }
  bool VAncestor(const Vpbn& x, const Vpbn& y) const {
    return VAncestor(VpbnView(x), VpbnView(y));
  }
  bool VParent(const Vpbn& x, const Vpbn& y) const {
    return VParent(VpbnView(x), VpbnView(y));
  }
  bool VDescendant(const Vpbn& x, const Vpbn& y) const {
    return VDescendant(VpbnView(x), VpbnView(y));
  }
  bool VChild(const Vpbn& x, const Vpbn& y) const {
    return VChild(VpbnView(x), VpbnView(y));
  }
  bool VAncestorOrSelf(const Vpbn& x, const Vpbn& y) const {
    return VAncestorOrSelf(VpbnView(x), VpbnView(y));
  }
  bool VDescendantOrSelf(const Vpbn& x, const Vpbn& y) const {
    return VDescendantOrSelf(VpbnView(x), VpbnView(y));
  }
  bool VPreceding(const Vpbn& x, const Vpbn& y) const {
    return VPreceding(VpbnView(x), VpbnView(y));
  }
  bool VFollowing(const Vpbn& x, const Vpbn& y) const {
    return VFollowing(VpbnView(x), VpbnView(y));
  }
  bool VPrecedingSibling(const Vpbn& x, const Vpbn& y) const {
    return VPrecedingSibling(VpbnView(x), VpbnView(y));
  }
  bool VFollowingSibling(const Vpbn& x, const Vpbn& y) const {
    return VFollowingSibling(VpbnView(x), VpbnView(y));
  }
  /// @}

  /// Dispatch on \p axis (kAttribute is always false).
  bool VCheckAxis(num::Axis axis, const VpbnView& x, const VpbnView& y) const;
  bool VCheckAxis(num::Axis axis, const Vpbn& x, const Vpbn& y) const {
    return VCheckAxis(axis, VpbnView(x), VpbnView(y));
  }

  /// Virtual document order: less = x comes before y. Nodes that compare
  /// equivalent are the same virtual node.
  ///
  /// The order is lexicographic over virtual levels. At each level the two
  /// nodes' *level segments* — the contiguous run of PBN components whose
  /// level-array entry equals that level — are compared element-wise; a
  /// Case-2 entry with no component sorts after any component, and when one
  /// segment is a proper prefix of the other the longer segment sorts first
  /// (this is what places a title's text before the authors in the paper's
  /// Figure 3). Segments that tie fall through to the pre-order index of
  /// the nodes' level-l ancestor types. Because every level comparison is a
  /// pure lexicographic key, the order is a strict weak ordering — safe for
  /// std::sort — which the naive "ordinal scan, then type order" reading of
  /// §5's formulas is not (it admits cycles when `*`/`**` expansions put
  /// differently-scoped types under one parent).
  std::weak_ordering VCompare(const VpbnView& x, const VpbnView& y) const;
  std::weak_ordering VCompare(const Vpbn& x, const Vpbn& y) const {
    return VCompare(VpbnView(x), VpbnView(y));
  }

  /// Render "1.2.2 [1,1,2]" for diagnostics.
  std::string ToString(const Vpbn& x) const;

  /// Compile the NumbersCompatible test of the type pair (\p x, \p y) into
  /// a merge recipe (symmetric in its arguments). \p x_len / \p y_len are
  /// the uniform PBN lengths of the types' instances — i.e.
  /// original_guide.length(original(t)) — which decide `impossible` once
  /// per pair instead of once per instance. The type-level and level
  /// conditions of the axis predicates are NOT part of the plan; the
  /// caller establishes them when enumerating pairs from the type forest.
  VPairMergePlan PlanPairMerge(vdg::VTypeId x, vdg::VTypeId y,
                               uint32_t x_len, uint32_t y_len) const;

 private:
  /// The number-level prefix test shared by VAncestor/VDescendant: at every
  /// aligned position where the level arrays agree, the PBN components must
  /// exist and agree.
  bool NumbersCompatible(const VpbnView& x, const VpbnView& y) const;

  /// First array position (1-based) of each level's segment for \p t, plus
  /// a final end marker: segment of level l is [starts[l-1], starts[l]).
  const std::vector<uint32_t>& SegmentStarts(vdg::VTypeId t) const {
    return segment_starts_[t];
  }

  const vdg::VDataGuide* guide_ = nullptr;
  LevelArrayMap arrays_;
  // Per vtype: ancestor vtype at each level (chain root..self).
  std::vector<std::vector<vdg::VTypeId>> chains_;
  // Per vtype: level-segment boundaries in its level array.
  std::vector<std::vector<uint32_t>> segment_starts_;
};

}  // namespace vpbn::virt
