/// \file serializer.h
/// \brief Serialize a Document (or subtree) back to XML text.
///
/// The compact form is canonical: parsing the output reproduces the same
/// tree (tested by the round-trip property tests). The storage layer (§6 of
/// the paper) uses the compact form as the "long string" representation and
/// records per-node byte ranges while serializing.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "xml/document.h"

namespace vpbn::xml {

/// \brief Serialization knobs.
struct SerializeOptions {
  /// Pretty-print with newlines and two-space indentation. The compact form
  /// (false) is the canonical storage form.
  bool indent = false;
};

/// \brief Serialize the subtree rooted at \p node.
std::string SerializeNode(const Document& doc, NodeId node,
                          const SerializeOptions& options = {});

/// \brief Serialize the whole forest (all roots in order).
std::string SerializeDocument(const Document& doc,
                              const SerializeOptions& options = {});

/// \brief Serialize the subtree at \p node, appending to \p out and recording
/// the byte range [start, end) of every visited node into \p ranges, indexed
/// by NodeId (ranges must be pre-sized to doc.num_nodes()).
void SerializeWithRanges(const Document& doc, NodeId node, std::string* out,
                         std::vector<std::pair<uint64_t, uint64_t>>* ranges);

/// \brief Serialize the whole forest in the compact storage form:
/// SerializeWithRanges over every root in order, appending to \p out.
/// \p ranges must be pre-sized to doc.num_nodes().
void SerializeForestWithRanges(
    const Document& doc, std::string* out,
    std::vector<std::pair<uint64_t, uint64_t>>* ranges);

}  // namespace vpbn::xml
