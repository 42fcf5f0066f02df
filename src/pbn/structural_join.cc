#include "pbn/structural_join.h"

#include <algorithm>

namespace vpbn::num {

namespace {

/// Stack-tree join skeleton shared by both variants. The stack holds the
/// chain of ancestors enclosing the current position in document order;
/// each descendant is matched against the whole stack (ancestor variant) or
/// its top-most applicable entry (parent variant).
template <bool kParentOnly>
std::vector<JoinPair> StackTreeJoin(const std::vector<Pbn>& ancestors,
                                    const std::vector<Pbn>& descendants) {
  std::vector<JoinPair> out;
  std::vector<size_t> stack;
  size_t a = 0;
  for (size_t d = 0; d < descendants.size(); ++d) {
    const Pbn& dn = descendants[d];
    // Pop ancestors that cannot enclose dn (dn is past their subtree).
    while (!stack.empty() && !ancestors[stack.back()].IsStrictPrefixOf(dn)) {
      stack.pop_back();
    }
    // Push ancestors up to dn in document order that enclose dn.
    while (a < ancestors.size() && ancestors[a] < dn) {
      if (ancestors[a].IsStrictPrefixOf(dn)) {
        // Entering a deeper enclosing ancestor; anything it does not
        // nest in was popped above.
        stack.push_back(a);
      }
      ++a;
    }
    if constexpr (kParentOnly) {
      if (!stack.empty()) {
        size_t top = stack.back();
        if (ancestors[top].length() + 1 == dn.length()) {
          out.push_back(JoinPair{top, d});
        }
      }
    } else {
      for (size_t s : stack) out.push_back(JoinPair{s, d});
    }
  }
  return out;
}

/// Packed mirror of StackTreeJoin over two row selections: the merge state
/// is byte-level, read in place at each side's selected rows. Every
/// IsStrictPrefixOf/order decision is a sort-key compare (arena memcmp only
/// past equal keys); with kCounted the counters tally decisions and the
/// bytes they touched. Counting is a template parameter so the uncounted
/// join carries zero bookkeeping in its inner loop.
template <bool kParentOnly, bool kCounted>
std::vector<JoinPair> PackedStackTreeJoin(const PackedRows& ancestors,
                                          const PackedRows& descendants,
                                          JoinCounters* counters) {
  std::vector<JoinPair> out;
  std::vector<size_t> stack;
  size_t a = 0;
  uint64_t comparisons = 0;
  uint64_t bytes = 0;
  uint64_t block_skips = 0;
  const size_t a_size = ancestors.size;
  const uint32_t* a_rows = ancestors.rows;
  const char* a_arena = ancestors.list->arena_data();
  const uint32_t* a_off = ancestors.list->offsets_data();
  const uint32_t* a_len = ancestors.list->lengths_data();
  const uint64_t* a_key = ancestors.list->keys_data();
  const size_t d_end = descendants.size;
  const uint32_t* d_rows = descendants.rows;
  const char* d_arena = descendants.list->arena_data();
  const uint32_t* d_off = descendants.list->offsets_data();
  const uint32_t* d_len = descendants.list->lengths_data();
  const uint64_t* d_key = descendants.list->keys_data();
  // Position -> row of each side (identity when the side reads every row).
  auto arow = [a_rows](size_t i) { return a_rows ? a_rows[i] : i; };
  auto drow = [d_rows](size_t i) { return d_rows ? d_rows[i] : i; };
  auto aref = [&](size_t i) {
    const size_t r = arow(i);
    return PackedPbnRef(a_arena + a_off[r], a_off[r + 1] - a_off[r], a_len[r],
                        a_key[r]);
  };
  auto dref = [&](size_t i) {
    const size_t r = drow(i);
    return PackedPbnRef(d_arena + d_off[r], d_off[r + 1] - d_off[r], d_len[r],
                        d_key[r]);
  };
  for (size_t d = 0; d < d_end; ++d) {
    PackedPbnRef dn = dref(d);
    // Pop the chain entries whose subtrees ended before dn. A popped
    // entry's subtree is a contiguous document-order interval ending
    // before dn, so it would be popped for every later descendant too —
    // which is what lets the block skip below run on the drained stack.
    while (!stack.empty()) {
      const PackedPbnRef top = aref(stack.back());
      if constexpr (kCounted) {
        ++comparisons;
        bytes += top.size_bytes();
      }
      if (top.IsStrictPrefixOf(dn)) break;
      stack.pop_back();
    }
    if (stack.empty()) {
      // No enclosing chain: once the ancestor scan is exhausted, no later
      // descendant can produce output.
      if (a >= a_size) break;
      // A whole descendant block strictly below the next ancestor key emits
      // nothing: every dn in it has an.key > dn.key, so the advance loop
      // breaks immediately with the stack still empty.
      const size_t d0 = d;
      const uint64_t next_key = a_key[arow(a)];
      while (d_end - d >= kPbnBlockEntries &&
             next_key > d_key[drow(d + kPbnBlockEntries - 1)]) {
        d += kPbnBlockEntries;
        ++block_skips;
      }
      if (d >= d_end) break;
      if (d != d0) dn = dref(d);
    }
    if (a < a_size) {
      // Ancestors with sort keys below this bound can be neither prefixes
      // of dn nor >= dn, so the advance loop would step over every one of
      // them without touching the stack. Stride whole blocks off the key
      // column (a block's last key is its maximum), then finish the
      // sub-block run without decoding arena bytes.
      const uint64_t bound = MinStrictPrefixKeyBound(dn);
      while (a_size - a >= kPbnBlockEntries &&
             a_key[arow(a + kPbnBlockEntries - 1)] < bound) {
        a += kPbnBlockEntries;
        ++block_skips;
      }
      while (a < a_size && a_key[arow(a)] < bound) ++a;
    }
    while (a < a_size) {
      const PackedPbnRef an = aref(a);
      if constexpr (kCounted) {
        ++comparisons;
        bytes += std::min(an.size_bytes(), dn.size_bytes());
      }
      if (an.Compare(dn) >= 0) break;
      if (an.IsStrictPrefixOf(dn)) stack.push_back(a);
      ++a;
    }
    if constexpr (kParentOnly) {
      if (!stack.empty()) {
        const size_t top = stack.back();
        if (a_len[arow(top)] + 1 == dn.length()) {
          out.push_back(JoinPair{top, d});
        }
      }
    } else {
      for (size_t s : stack) out.push_back(JoinPair{s, d});
    }
  }
  if constexpr (kCounted) {
    counters->comparisons += comparisons;
    counters->bytes_compared += bytes;
    counters->block_skips += block_skips;
  }
  return out;
}

template <bool kParentOnly>
std::vector<JoinPair> PackedJoin(const PackedRows& ancestors,
                                 const PackedRows& descendants,
                                 JoinCounters* counters) {
  return counters != nullptr
             ? PackedStackTreeJoin<kParentOnly, true>(ancestors, descendants,
                                                      counters)
             : PackedStackTreeJoin<kParentOnly, false>(ancestors,
                                                       descendants, nullptr);
}

}  // namespace

std::vector<JoinPair> AncestorDescendantJoin(
    const std::vector<Pbn>& ancestors, const std::vector<Pbn>& descendants) {
  return StackTreeJoin<false>(ancestors, descendants);
}

std::vector<JoinPair> ParentChildJoin(const std::vector<Pbn>& parents,
                                      const std::vector<Pbn>& children) {
  return StackTreeJoin<true>(parents, children);
}

std::vector<JoinPair> AncestorDescendantJoin(const PackedRows& ancestors,
                                             const PackedRows& descendants,
                                             JoinCounters* counters) {
  return PackedJoin<false>(ancestors, descendants, counters);
}

std::vector<JoinPair> ParentChildJoin(const PackedRows& parents,
                                      const PackedRows& children,
                                      JoinCounters* counters) {
  return PackedJoin<true>(parents, children, counters);
}

}  // namespace vpbn::num
