/// \file numbering.h
/// \brief Assigning PBN numbers to every node of a Document.
///
/// A Numbering is the NodeId -> Pbn column for one document. Renumbering a
/// document after a physical transformation — the expensive operation the
/// paper's virtual approach avoids (§4.3) — is just building a fresh
/// Numbering, so the baseline cost in the benchmarks is exactly this
/// class's constructor. There is no Pbn -> NodeId direction: the stored
/// substrate finds a number's node by its (type, row) position in the
/// packed type index (storage/stored_document.h).

#pragma once

#include <vector>

#include "pbn/pbn.h"
#include "xml/document.h"

namespace vpbn::num {

/// \brief PBN numbers for all nodes of one document.
class Numbering {
 public:
  /// Number every node of \p doc: roots are 1, 2, ...; each child extends
  /// its parent's number with its 1-based sibling ordinal.
  static Numbering Number(const xml::Document& doc);

  /// Wrap an already-computed NodeId -> Pbn column (the snapshot restore
  /// path).
  static Numbering FromNumbers(std::vector<Pbn> numbers);

  /// The number of node \p id.
  const Pbn& OfNode(xml::NodeId id) const { return numbers_[id]; }

  size_t size() const { return numbers_.size(); }

  /// All numbers, indexed by NodeId.
  const std::vector<Pbn>& numbers() const { return numbers_; }

  /// Total heap bytes held by the numbers (E5 space accounting).
  size_t NumbersMemoryUsage() const;

 private:
  std::vector<Pbn> numbers_;
};

}  // namespace vpbn::num
