/// \file value_index.h
/// \brief Dictionary-encoded value index: per-type term columns, postings
/// and sorted numeric rows for predicate pushdown.
///
/// The paper's §6 value index maps a PBN to its character range in the
/// stored string — enough to *fetch* a value, but a value predicate
/// (`[author="X"]`, `[price > 50]`) still materializes and compares one
/// string per candidate. This index flips that around, the standard move in
/// PBN-family systems (dictionary-encoded value columns a la Pathfinder,
/// element+term postings of XML IR engines):
///
///   * a Dictionary interns each distinct string value once and records its
///     numeric interpretation (parsed as a double where possible);
///   * per covered type, a TypeColumn holds one term id per instance row —
///     row r is the r-th entry of the type's document-ordered instance list
///     (StoredDocument::PackedNodesOfType / NodeIdsOfType), so a row *is* a
///     reference into the parallel PBN column and postings convert to
///     packed PBN lists without re-encoding;
///   * per (term, type), sorted postings rows answer equality lookups;
///   * per type, the numeric rows sorted by value answer `< <= > >=` with
///     two binary searches.
///
/// A type is *covered* when its string-value is flat: text types, and
/// element types whose DataGuide children are all text types (leaf
/// elements). For those, the interned term is byte-identical to the XPath
/// string-value the evaluators would have assembled, which is what makes
/// pushdown results byte-identical to the scan path. Attribute values are
/// interned into the same dictionary, one column per (element type,
/// attribute name).
///
/// The query layer decides which lookups to run (query/value_pushdown.h);
/// this layer only stores columns, which keeps it below vpbn_storage in the
/// link graph (StoredDocument owns a ValueIndex, VirtualDocument builds
/// per-vtype columns lazily through BuildColumn).

#pragma once

#include <charconv>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "dataguide/dataguide.h"
#include "xml/document.h"

namespace vpbn::storage {
class Snapshot;
}

namespace vpbn::idx {

/// \brief Sentinel term id: "no value" (absent attribute).
inline constexpr uint32_t kNoTerm = 0xFFFFFFFFu;

/// \brief The canonical numeric interpretation of a value: whitespace
/// trimmed, then std::from_chars over the full remainder. Every layer that
/// compares values numerically (query/evaluator.h ToNumber, the dictionary
/// at intern time) must agree on this parse, or pushdown and scan results
/// diverge.
inline bool ParseNumber(std::string_view s, double* out) {
  const char* b = s.data();
  const char* e = s.data() + s.size();
  while (b < e && (*b == ' ' || *b == '\t' || *b == '\n')) ++b;
  while (e > b && (e[-1] == ' ' || e[-1] == '\t' || e[-1] == '\n')) --e;
  if (b == e) return false;
  auto [ptr, ec] = std::from_chars(b, e, *out);
  return ec == std::errc() && ptr == e;
}

/// \brief Interned distinct values with precomputed numeric
/// interpretations. Term strings live in a deque so their views stay valid
/// as the dictionary grows.
class Dictionary {
 public:
  /// Returns the term id of \p value, interning it on first sight.
  uint32_t Intern(std::string_view value);

  /// Term id of \p value, or kNoTerm if it was never interned.
  uint32_t Find(std::string_view value) const;

  std::string_view term(uint32_t id) const { return terms_[id]; }
  /// Whether term \p id parses as a number (ParseNumber).
  bool numeric(uint32_t id) const { return numeric_[id] != 0; }
  /// The parsed value; meaningful only when numeric(id).
  double number(uint32_t id) const { return numbers_[id]; }

  size_t size() const { return terms_.size(); }
  size_t MemoryUsage() const;

 private:
  std::deque<std::string> terms_;
  std::vector<double> numbers_;
  std::vector<uint8_t> numeric_;
  std::unordered_map<std::string_view, uint32_t> map_;
};

/// \brief Per-column statistics: term-frequency aggregates, an equi-depth
/// histogram over the numeric rows, and per-block zone maps over the
/// row-order term/value columns.
///
/// The histogram feeds the cost model's selectivity estimates
/// (query/cardinality.h); the zone maps feed data skipping: block b covers
/// rows [b*kZoneBlockRows, (b+1)*kZoneBlockRows) of the column, and a range
/// predicate whose interval misses [zone_min[b], zone_max[b]] — or an
/// equality probe whose term id misses [zone_term_min[b], zone_term_max[b]]
/// — cannot match any row of the block, so scans skip it wholesale.
///
/// Stats are recomputed by ComputeStats in both build paths (BuildColumn and
/// the snapshot-restore ColumnFromTermIds), so a restored column carries
/// bit-identical statistics to a freshly built one; snapshot v2 can also
/// persist them (storage/snapshot.cc, optional STATS section) to skip the
/// recompute on load.
struct TypeColumn;
struct ColumnStats {
  /// Rows per zone-map block. Matches num::kPbnBlockEntries so a value-column
  /// block aligns with one packed-PBN block of the type's instance list.
  static constexpr size_t kZoneBlockRows = 256;
  /// Equi-depth histogram resolution cap.
  static constexpr size_t kMaxBuckets = 64;

  uint64_t row_count = 0;       ///< rows in the column
  uint64_t numeric_count = 0;   ///< rows with a (non-NaN) numeric value
  uint64_t distinct_terms = 0;  ///< distinct terms in the column
  uint64_t max_term_rows = 0;   ///< size of the largest postings list
  double min_value = 0;         ///< smallest numeric value (iff numeric_count)
  double max_value = 0;         ///< largest numeric value (iff numeric_count)

  /// Equi-depth histogram over the value-sorted numeric rows. bucket_max[i]
  /// is the largest value in bucket i; bucket_rows[i] its row count;
  /// bucket_distinct[i] its distinct-value count. Bucket boundaries are
  /// extended past equal-value runs, so one value never straddles buckets
  /// and bucket_rows / bucket_distinct is an unbiased per-value row count.
  std::vector<double> bucket_max;
  std::vector<uint64_t> bucket_rows;
  std::vector<uint64_t> bucket_distinct;

  /// Zone maps over row-order blocks: numeric value bounds (+inf/-inf when
  /// the block holds no numeric row) and term-id bounds per block.
  std::vector<double> zone_min;
  std::vector<double> zone_max;
  std::vector<uint32_t> zone_term_min;
  std::vector<uint32_t> zone_term_max;

  /// Estimated count of numeric rows with value < v (value <= v when
  /// \p inclusive): cumulative buckets plus linear interpolation inside the
  /// partial bucket.
  double EstimateRowsBelow(double v, bool inclusive) const;
  /// Estimated count of numeric rows with value == v (bucket rows over
  /// bucket distinct values).
  double EstimateEqRows(double v) const;

  size_t MemoryUsage() const {
    return bucket_max.capacity() * sizeof(double) +
           bucket_rows.capacity() * sizeof(uint64_t) +
           bucket_distinct.capacity() * sizeof(uint64_t) +
           (zone_min.capacity() + zone_max.capacity()) * sizeof(double) +
           (zone_term_min.capacity() + zone_term_max.capacity()) *
               sizeof(uint32_t);
  }
};

/// \brief Value column of one covered type. Rows align index-for-index with
/// the type's document-ordered instance list.
struct TypeColumn {
  /// The dictionary term_ids resolve in (the owning index's dictionary; a
  /// VirtualDocument's assembled columns point at its own).
  const Dictionary* dict = nullptr;
  /// One interned term per instance row.
  std::vector<uint32_t> term_ids;
  /// Rows whose value is numeric, sorted by (value, row). Equal values stay
  /// in row (= document) order, so an equality slice is already sorted.
  std::vector<uint32_t> numeric_rows;
  /// term id -> ascending instance rows whose value equals the term.
  std::unordered_map<uint32_t, std::vector<uint32_t>> postings;
  /// Histogram + zone maps, computed by ValueIndex::ComputeStats in every
  /// build path (so built and restored columns agree bit-for-bit).
  ColumnStats stats;

  size_t MemoryUsage() const;
};

/// \brief Attribute value column: one term per instance row of the element
/// type, kNoTerm where the attribute is absent.
struct AttrColumn {
  std::vector<uint32_t> term_ids;

  size_t MemoryUsage() const {
    return term_ids.capacity() * sizeof(uint32_t);
  }
};

/// \brief The per-document value index, built once at StoredDocument build
/// time. Immutable afterwards; safe for concurrent reads.
class ValueIndex {
 public:
  ValueIndex() = default;

  /// Builds columns for every covered type of \p guide and attribute
  /// columns for every attribute name that occurs on an element type.
  /// \p nodes_by_type[t] lists the instances of type t in document order
  /// (StoredDocument's type_node_index). Terms are interned in one
  /// canonical order — type by type, the covered column's row values
  /// first, then the attribute values row by row — so term ids depend only
  /// on the document. Only one type's values are held at a time.
  static ValueIndex Build(
      const xml::Document& doc, const dg::DataGuide& guide,
      const std::vector<std::vector<xml::NodeId>>& nodes_by_type);

  /// Whether \p t is covered per the guide: a text type, or an element type
  /// whose guide children are all text types.
  static bool GuideCovers(const dg::DataGuide& guide, dg::TypeId t);

  /// The value column of \p t, or nullptr when the type is not covered.
  const TypeColumn* Column(dg::TypeId t) const {
    return t < columns_.size() ? columns_[t].get() : nullptr;
  }

  /// The attribute column of (\p t, \p name), or nullptr when no instance
  /// of \p t carries the attribute.
  const AttrColumn* Attr(dg::TypeId t, const std::string& name) const;

  const Dictionary& dict() const { return *dict_; }
  size_t MemoryUsage() const;

  /// Builds one column over \p n rows whose values \p value_of supplies,
  /// interning into \p dict. Shared by Build and by VirtualDocument's lazy
  /// per-vtype columns (assembled virtual values).
  static TypeColumn BuildColumn(
      size_t n, const std::function<std::string(size_t)>& value_of,
      Dictionary* dict);

  /// Rebuilds a column from its stored term-id row (the snapshot restore
  /// path): postings and the sorted numeric rows are re-derived rather than
  /// persisted. InvalidArgument if any id is out of range for \p dict.
  /// With \p precomputed (snapshot v2 STATS section), the statistics are
  /// moved in instead of recomputed, after validating that their counts and
  /// array shapes match the rebuilt column — mismatches are
  /// InvalidArgument, so a corrupt stats section can never seed the cost
  /// model with statistics of the wrong shape.
  static Result<TypeColumn> ColumnFromTermIds(std::vector<uint32_t> term_ids,
                                              const Dictionary* dict,
                                              ColumnStats* precomputed =
                                                  nullptr);

  /// Computes the histogram + zone-map statistics of \p col (which must
  /// have its term_ids, numeric_rows and postings populated). Deterministic
  /// in the column contents alone, so both build paths produce identical
  /// stats.
  static ColumnStats ComputeStats(const TypeColumn& col);

 private:
  friend class vpbn::storage::Snapshot;  // restore-path access to members

  // Heap-held so the address every TypeColumn::dict records stays valid
  // when the index (inside its StoredDocument) is moved.
  std::unique_ptr<Dictionary> dict_ = std::make_unique<Dictionary>();
  std::vector<std::unique_ptr<TypeColumn>> columns_;  // by TypeId
  // by TypeId; attribute name -> column.
  std::vector<std::unordered_map<std::string, AttrColumn>> attrs_;
};

}  // namespace vpbn::idx
