/// \file virtual_value.h
/// \brief Computing transformed values (§6).
///
/// The value of a node is the XML string of its subtree. After a virtual
/// transformation a node's value must be assembled in the *virtual* shape:
/// start tag, then the values of its virtual children in virtual document
/// order, then the end tag. The key optimization from §6: when a virtual
/// type's subtree is *intact* — structurally identical to its original
/// subtree — the value of any instance is a single substring of the stored
/// string, served through the value index without any assembly.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "vpbn/virtual_document.h"

namespace vpbn::virt {

/// \brief Assembles virtual values, reusing stored byte ranges for intact
/// subtrees.
class VirtualValueComputer {
 public:
  /// \p vdoc must outlive the computer.
  explicit VirtualValueComputer(const VirtualDocument& vdoc);

  /// The XML value of virtual node \p v (text nodes yield escaped text,
  /// exactly as stored).
  std::string Value(const VirtualNode& v);

  /// Zero-copy variant: when \p v's subtree is intact its value is one
  /// substring of the stored string — set \p out to that view (valid as
  /// long as the stored document lives) and return true. False when the
  /// value must be assembled (caller falls back to Value()).
  bool ValueView(const VirtualNode& v, std::string_view* out);

  /// True iff the virtual subtree of type \p t mirrors its original subtree
  /// (same types, same order, nothing added or removed), so instance values
  /// can be served from the value index.
  bool IsIntact(vdg::VTypeId t) const { return intact_[t]; }

  /// \brief Accounting for the E6 benchmark.
  struct Stats {
    /// Subtrees served as one byte-range copy from the stored string.
    uint64_t range_copies = 0;
    /// Nodes assembled piece by piece.
    uint64_t constructed_nodes = 0;
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

 private:
  void AppendValue(const VirtualNode& v, std::string* out);

  const VirtualDocument* vdoc_;
  std::vector<bool> intact_;  // by VTypeId
  Stats stats_;
};

}  // namespace vpbn::virt
