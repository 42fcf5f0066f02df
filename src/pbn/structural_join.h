/// \file structural_join.h
/// \brief Set-at-a-time structural joins on sorted PBN lists.
///
/// The per-type PBN lists of the type index are sorted in document order,
/// so the classic stack-based tree-merge join (Al-Khalifa et al., ICDE
/// 2002) computes all ancestor/descendant or parent/child pairs between
/// two lists in O(|A| + |D| + |output|) — the machinery underneath every
/// PBN-era XML query processor, and the set-oriented alternative to the
/// per-node containment scans used by the path evaluators.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "pbn/packed.h"
#include "pbn/pbn.h"

namespace vpbn::num {

/// \brief One join result: indexes into the input lists.
struct JoinPair {
  size_t ancestor_index;
  size_t descendant_index;

  bool operator==(const JoinPair&) const = default;
};

/// \brief All pairs (a, d) with ancestors[a] a proper ancestor of
/// descendants[d]. Both inputs must be sorted in document order (as the
/// type index provides). Output is ordered by descendant, then by
/// ancestor depth (outermost first).
std::vector<JoinPair> AncestorDescendantJoin(
    const std::vector<Pbn>& ancestors, const std::vector<Pbn>& descendants);

/// \brief All pairs (p, c) with parents[p] the parent of children[c].
/// Same input contract and output order.
std::vector<JoinPair> ParentChildJoin(const std::vector<Pbn>& parents,
                                      const std::vector<Pbn>& children);

/// \brief Work counters for the packed joins, so ExecStats can report how
/// many axis decisions and arena bytes a join actually touched. Each join
/// call accumulates into the struct when non-null.
struct JoinCounters {
  uint64_t comparisons = 0;     ///< prefix/order decisions made
  uint64_t bytes_compared = 0;  ///< encoded bytes fed to those decisions
  uint64_t vjoin_pairs = 0;     ///< pairs emitted by virtual merge joins
  uint64_t decoded_batches = 0; ///< arenas batch-decoded into flat columns
  uint64_t block_skips = 0;     ///< kPbnBlockEntries blocks skipped wholesale
};

/// \brief One side of a packed join: a document-ordered PackedPbnList read
/// at the ascending rows `rows[0..size)`, or at every row when `rows` is
/// null. A selection is joined in place over the list's arena, never
/// copied out. Converts implicitly from a whole list.
struct PackedRows {
  PackedRows(const PackedPbnList& l)  // NOLINT: every row
      : list(&l), size(l.size()) {}
  PackedRows(const PackedPbnList& l, const uint32_t* r, size_t n)
      : list(&l), rows(r), size(n) {}

  const PackedPbnList* list;
  const uint32_t* rows = nullptr;
  size_t size;
};

/// \name Packed structural joins
///
/// Same contract and byte-identical JoinPair output as the vector variants,
/// with JoinPair indexes counting positions within each side (rows, when
/// the side reads every row), but streaming over the contiguous arenas of
/// PackedPbnList: every axis decision is a memcmp over encoded bytes, and
/// whole kPbnBlockEntries blocks of either side whose sort keys prove no
/// element can match or stop the merge are skipped
/// (JoinCounters::block_skips), so a selective side does not walk the
/// other side's whole arena. \p counters is explicit (no default) so
/// brace-initialized vector calls never overload-clash with the vector
/// variants; pass nullptr to count nothing.
/// @{
std::vector<JoinPair> AncestorDescendantJoin(const PackedRows& ancestors,
                                             const PackedRows& descendants,
                                             JoinCounters* counters);
std::vector<JoinPair> ParentChildJoin(const PackedRows& parents,
                                      const PackedRows& children,
                                      JoinCounters* counters);
/// @}

}  // namespace vpbn::num
