/// \file stored_document.h
/// \brief The paper's storage model (§6): the document as one long string
/// plus a value index from nodes to character ranges.
///
/// "Suppose that an XML DBMS stores the source XML data as a long string.
///  Then the value of each kind of node is a specific substring. ... A
///  critical component in the implementation of an XML DBMS that uses PBN is
///  a value index to quickly find the value of a node given its PBN number."
///
/// A StoredDocument bundles:
///   * the canonical serialized string of the document,
///   * per-node headers (Type ID and row within the type, §6's header
///     information; the PBN number sits at that row of the type index),
///   * the value index node -> [start, end) byte range,
///   * a type index TypeId -> packed PBN numbers in document order (the
///     usual "find all the <author> elements" index, §4.3), aligned row for
///     row with the NodeIds they number.
///
/// Stored query results are NodeIds. A number's node is found by its
/// (type, row) position in the type index, never by hashing the number, so
/// there is no Pbn -> NodeId map.

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/mmap_file.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "dataguide/dataguide.h"
#include "index/value_index.h"
#include "pbn/numbering.h"
#include "pbn/packed.h"
#include "pbn/pbn.h"
#include "xml/document.h"

namespace vpbn::storage {

/// \brief A document in stored-string form with its numbering and indexes.
class StoredDocument {
 public:
  StoredDocument() = default;

  /// Movable (the materialization-cache mutex is not moved — a moved
  /// document starts with a fresh lock). Moving while other threads query
  /// is undefined, as usual.
  StoredDocument(StoredDocument&& other) noexcept;
  StoredDocument& operator=(StoredDocument&& other) noexcept;

  /// Builds the stored form of \p doc: serializes it, numbers it, builds its
  /// DataGuide and both indexes. The Document remains owned by the caller
  /// and must outlive the StoredDocument.
  ///
  /// The build runs in explicit phases — serialize / number / DataGuide +
  /// type-of-node, then per-type packed lists and per-type value columns —
  /// and with a pool the embarrassingly parallel phases fan out on it. The
  /// result is byte-identical to the single-threaded build for any thread
  /// count.
  static StoredDocument Build(const xml::Document& doc,
                              common::ThreadPool* pool = nullptr);

  /// Owning overload: the StoredDocument takes the Document in, removing
  /// the keep-alive burden from the caller (and the dangling-pointer
  /// footgun when the caller's Document goes out of scope first).
  static StoredDocument Build(xml::Document&& doc,
                              common::ThreadPool* pool = nullptr);

  const xml::Document& doc() const { return *doc_; }

  /// \name Ingest metadata
  /// Wall-clock cost of Build (or of Snapshot::Load for snapshot-restored
  /// documents) and how this document came to be — surfaced by the query
  /// engine's ExecStats.
  /// @{
  double ingest_ms() const { return ingest_ms_; }
  bool from_snapshot() const { return from_snapshot_; }

  /// On-disk size of the snapshot this document was restored from (0 for
  /// built documents) and how many of those bytes are memory-mapped rather
  /// than copied. Surfaced by ExecStats / the server STATS verb.
  size_t snapshot_bytes() const { return snapshot_bytes_; }
  size_t mapped_bytes() const { return mapped_bytes_; }
  /// @}

  /// The NodeId -> Pbn column as heap Pbns. Build constructs it eagerly
  /// (numbering *is* part of the build); a snapshot-loaded document
  /// hydrates it from the packed per-type arenas on first call. Only the
  /// virtual substrate reads it; stored queries and value rendering stay on
  /// the packed arenas and NodeIds, so they never hydrate it. Thread-safe.
  const num::Numbering& numbering() const {
    if (!numbering_ready_.load(std::memory_order_acquire)) {
      HydrateNumbering();
    }
    return numbering_;
  }
  const dg::DataGuide& dataguide() const { return guide_; }

  /// Type of a node (typeOf against the DataGuide).
  dg::TypeId TypeOfNode(xml::NodeId id) const { return node_types_[id]; }

  /// The full stored string.
  const std::string& stored_string() const { return text_; }

  /// \name Value index (§6)
  /// @{

  /// XML value of node \p id: the substring of the stored string from its
  /// start tag to its end tag (or the escaped text for text nodes). O(1).
  std::string_view Value(xml::NodeId id) const {
    const auto& [start, end] = ranges_[id];
    return std::string_view(text_).substr(start, end - start);
  }

  /// The dictionary-encoded value index (term columns, postings, numeric
  /// rows) the query layer pushes value predicates into. Built with the
  /// document; immutable afterwards.
  const idx::ValueIndex& value_index() const { return value_index_; }
  /// @}

  /// \name Type index
  ///
  /// The stored substrate is columnar: per type, one contiguous arena of
  /// order-preserving encoded numbers (pbn/packed.h), aligned row for row
  /// with the NodeIds of that type. Joins and axis scans stream over the
  /// arena with memcmp decisions and emit NodeIds from the aligned column;
  /// a node's own number is PackedNodesOfType(TypeOfNode(id))[RowOfNode(id)].
  /// @{

  /// Packed numbers of all nodes of type \p t, in document order. Empty
  /// list for types with no instances.
  const num::PackedPbnList& PackedNodesOfType(dg::TypeId t) const;

  /// NodeIds of all nodes of type \p t, in document order, aligned
  /// index-for-index with PackedNodesOfType(t).
  const std::vector<xml::NodeId>& NodeIdsOfType(dg::TypeId t) const;

  /// Row of node \p id within its type's instance list: PackedNodesOfType /
  /// NodeIdsOfType / the value index's columns all align on it. O(1).
  uint32_t RowOfNode(xml::NodeId id) const { return node_rows_[id]; }

  /// Index range [first, last) into PackedNodesOfType(t)/NodeIdsOfType(t)
  /// of the instances that are descendants-or-self of \p scope, found by
  /// memcmp binary search on the packed ordered index (a containment range
  /// scan).
  std::pair<size_t, size_t> TypeRangeWithin(dg::TypeId t,
                                            const num::Pbn& scope) const;

  /// Same range scan with an already-encoded scope (the fully packed hot
  /// path — no per-call encoding).
  std::pair<size_t, size_t> TypeRangeWithin(
      dg::TypeId t, const num::PackedPbnRef& scope) const;
  /// @}

  /// Resident bytes of the snapshot mapping actually faulted in (mincore
  /// walk; 0 for built or buffer-backed documents). With lazy arena decode,
  /// queries that touch few types leave most of the mapping cold — the E17
  /// page-cache observability hook.
  size_t resident_mapped_bytes() const;

  /// Drop the snapshot mapping's pages from the page cache (best-effort
  /// madvise; no-op for built or buffer-backed documents). Re-creates the
  /// cold-load state so E17 can measure first-touch cost without remapping.
  void EvictMappedPages() const;

  /// Bytes used by the stored string, headers and indexes (E5 accounting).
  /// The heap numbers count only once hydrated (always for a built
  /// document); calling this never hydrates them.
  size_t MemoryUsage() const;

 private:
  friend class Snapshot;  // restores every member directly on Load

  /// Materializes numbering_ from the packed arenas (snapshot restore
  /// path); no-op when already hydrated.
  void HydrateNumbering() const;

  /// Build phase 2, shared with Snapshot::LoadV2: one sequential
  /// document-order pass that gives every node its row within its type's
  /// instance list, filling node_rows_ and type_node_index_ from doc_ and
  /// node_types_.
  void AssignTypeRows();

  /// \name Snapshot v2 lazy arenas
  ///
  /// A v2 load leaves the blocked per-type arena bytes in the snapshot
  /// backing store (the mapped file, or the retained load buffer) and
  /// decodes each type on its first PackedNodesOfType touch — cold start
  /// never pays for types a workload does not read. The snapshot checksum
  /// verified at load time vouches for the bytes, so a decode failure here
  /// is unreachable absent a logic bug; DecodeBlocked still validates
  /// framing and order, and on failure the type presents as empty rather
  /// than anything undefined.
  /// @{

  /// Decodes the still-lazy arena of type \p t (first-touch path of
  /// PackedNodesOfType).
  void DecodeLazyArena(dg::TypeId t) const;

  /// Forces every lazy arena decoded (Snapshot::Write, full hydration).
  void EnsureAllPacked() const;

  struct LazyArena {
    std::string_view blob;   ///< blocked bytes, possibly deflated
    uint64_t raw_bytes = 0;  ///< inflated size (== blob.size() when plain)
    bool deflated = false;
  };
  /// @}

  const xml::Document* doc_ = nullptr;
  std::unique_ptr<xml::Document> owned_doc_;  // set by the owning overload
  double ingest_ms_ = 0;
  bool from_snapshot_ = false;
  std::string text_;
  // Lazily hydrated after Snapshot::Load (see numbering()); double-checked
  // via the atomic flag, first build ordered by the mutex.
  mutable num::Numbering numbering_;
  mutable std::atomic<bool> numbering_ready_{true};
  mutable std::mutex numbering_mu_;
  dg::DataGuide guide_;
  std::vector<dg::TypeId> node_types_;
  std::vector<uint32_t> node_rows_;  // by NodeId: row within its type list
  idx::ValueIndex value_index_;
  std::vector<std::pair<uint64_t, uint64_t>> ranges_;  // by NodeId
  // Mutable for the lazy v2 decode path; immutable once decoded.
  mutable std::vector<num::PackedPbnList> packed_type_index_;  // by TypeId
  std::vector<std::vector<xml::NodeId>> type_node_index_;  // aligned
  // Snapshot v2 backing store: exactly one of mapping_/snapshot_buffer_ is
  // set for a v2-restored document; lazy_arenas_ views point into it.
  // packed_ready_ is a per-type decoded flag (null for built documents and
  // v1 loads — the common case pays one null check); packed_mu_ orders
  // first decode against concurrent readers.
  std::shared_ptr<common::MappedFile> mapping_;
  std::unique_ptr<std::string> snapshot_buffer_;
  std::vector<LazyArena> lazy_arenas_;
  mutable std::unique_ptr<std::atomic<uint8_t>[]> packed_ready_;
  mutable std::mutex packed_mu_;
  size_t snapshot_bytes_ = 0;
  size_t mapped_bytes_ = 0;
};

}  // namespace vpbn::storage
