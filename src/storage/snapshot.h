/// \file snapshot.h
/// \brief Versioned full-index snapshots of a StoredDocument.
///
/// xml/binary_io.h snapshots only the raw Document; every process still
/// pays the full ingest — renumber, rebuild the DataGuide, re-pack the
/// per-type arenas, re-intern the value dictionary — on load. That is
/// exactly the "physically transform + renumber + re-index" cost the paper
/// positions PBN against (§2, §4.3), sitting on our own startup path. A
/// Snapshot persists the *built* artifacts alongside the document, so Load
/// reconstructs a query-ready StoredDocument (owning its Document) with no
/// renumbering or re-indexing.
///
/// Layout (all integers LEB128 varints; strings are length-prefixed):
///
///   magic "VPSN" | version
///   document    : xml::WriteBinary blob (one length-prefixed string)
///   stored text : the serialized stored string + per-node (start, len)
///   dataguide   : type count + per type (label, parent+1) in TypeId order
///   type lists  : per type, instance count + one NodeId per instance in
///                 document order + the ordered-codec packed arena
///   values      : dictionary terms in term-id order; per type a covered
///                 flag + term-id column; per type the attribute columns
///                 (sorted by name; absent cells encode as 0)
///
/// Everything cheap to re-derive is re-derived on Load rather than stored:
/// packed offset/length/key columns from the arena framing, the node-type
/// and node-row columns from the type lists, postings and numeric rows
/// from the term-id columns. The heap NodeId -> Pbn column is not rebuilt
/// at all — the packed arenas carry every number, and the StoredDocument
/// hydrates the column lazily when the virtual substrate asks for it.
///
/// Load validates every section — arbitrary (truncated, bit-flipped,
/// hostile) input returns InvalidArgument, never crashes (fuzz-tested).
/// The packed numbers are verified *structurally*: the canonical PBN
/// numbering is a pure function of the tree (root index, then child
/// ordinals), so Load recomputes what each node's bytes must be from its
/// parent's and rejects any deviation — stronger than the uniqueness hash
/// check it replaces, and cheaper.
///
/// Version 2 trades the flat layout for a compressed, checksummed,
/// mmap-friendly one:
///
///   magic "VPSN" | varint version=2 | u64 LE checksum (Hash64 of every
///   byte after this field) | section directory (u8 count; per section
///   u8 kind, u64 LE offset, u64 LE size) | page-aligned sections
///
///   DOC    : the xml::WriteBinary blob, deflated
///   ARENAS : per type, instance count + the *blocked* ordered-codec blob
///            (pbn/packed.h EncodeBlocked: front-coded keys, varint-delta
///            offset directory, per-block min/max sort keys), deflated
///   VALUES : the v1 value-index bytes, deflated
///   STATS  : *optional* — per covered type, the precomputed column
///            statistics (index/value_index.h ColumnStats: aggregate
///            counts, the equi-depth histogram, the zone maps), deflated.
///            Doubles store as fixed64 bit patterns so restored statistics
///            are bit-identical. When present, Load moves them into the
///            restored columns (after validating their shapes against the
///            rebuilt columns) instead of recomputing; when absent — every
///            snapshot written before the section existed — Load falls
///            back to ValueIndex::ComputeStats, which produces the same
///            statistics from the term columns. Either way a loaded
///            document costs queries identically to a freshly built one.
///
/// Every blob is framed `u8 codec | varint raw_size | varint payload_size`
/// (codec 0 = stored, 1 = deflate); builds without zlib write codec 0 and
/// reject codec 1. Everything else — stored text, node ranges, the
/// DataGuide, node-type/row columns — is re-derived from the document with
/// Build's own deterministic phases, which both shrinks the file (the E13
/// corpus drops below its source-XML size) and keeps exactly one source of
/// truth. The checksum makes the corruption check O(bytes) up front, so a
/// v2 load skips the per-node canonical-numbering walk, leaves the arena
/// blobs in place (mapped or buffered), and decodes each type on first
/// touch — the lazy path pbn/packed.h DecodeBlocked still fully validates.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mmap_file.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "storage/stored_document.h"

namespace vpbn::storage {

class Snapshot {
 public:
  /// Current on-disk format version. Version 1 is the legacy flat layout
  /// (everything stored raw, structurally re-validated on load); version 2
  /// is the compressed, checksummed, page-aligned section layout described
  /// above. Both load; Write defaults to the newest.
  static constexpr uint32_t kVersion = 2;

  /// Serialize \p sd (document + every built artifact) into snapshot form.
  /// \p version selects the on-disk format (1 or 2); anything else returns
  /// an empty string. \p stats_section controls whether a v2 snapshot
  /// carries the optional STATS section (ignored for v1); writing without
  /// it reproduces the pre-STATS v2 layout, which the backward-compat
  /// tests load to prove old snapshots keep working.
  static std::string Write(const StoredDocument& sd,
                           uint32_t version = kVersion,
                           bool stats_section = true);

  /// Reconstruct a query-ready StoredDocument. The returned document owns
  /// its xml::Document; nothing is renumbered or re-indexed. With a pool,
  /// the per-type restore work fans out — the result is identical for any
  /// thread count. Fails with InvalidArgument on corrupt or
  /// version-incompatible input. For v2 input the arena bytes are retained
  /// in an internal buffer and decoded per type on first touch.
  static Result<StoredDocument> Load(std::string_view data,
                                     common::ThreadPool* pool = nullptr);

  /// File convenience wrappers around Write/Load. With \p use_mmap (the
  /// default), LoadFile memory-maps the file instead of copying it; a v2
  /// document then keeps the mapping alive and decodes arenas straight out
  /// of it, so the page cache is shared across processes.
  static Status WriteFile(const StoredDocument& sd, const std::string& path,
                          uint32_t version = kVersion);
  static Result<StoredDocument> LoadFile(const std::string& path,
                                         common::ThreadPool* pool = nullptr,
                                         bool use_mmap = true);

 private:
  static std::string WriteV1(const StoredDocument& sd);
  static std::string WriteV2(const StoredDocument& sd, bool stats_section);
  /// The value-index section bytes, shared verbatim by both versions.
  static void WriteValues(const StoredDocument& sd, std::string* out);
  /// \p stats, when non-null, holds per-type statistics parsed from a v2
  /// STATS section; covered columns move them in instead of recomputing.
  static Status LoadValues(std::string_view* data, StoredDocument* out,
                           common::ThreadPool* pool,
                           std::vector<std::unique_ptr<idx::ColumnStats>>*
                               stats = nullptr);
  static Result<StoredDocument> LoadV1(std::string_view data,
                                       common::ThreadPool* pool);
  /// Version dispatch over a backing store the caller hands over (mapping
  /// or buffer; both may be null for v1, which copies everything out).
  static Result<StoredDocument> LoadOwned(
      std::string_view full, common::ThreadPool* pool,
      std::shared_ptr<common::MappedFile> mapping,
      std::unique_ptr<std::string> buffer);
  /// \p full is the whole snapshot (for section offsets); \p data is
  /// positioned just past the version varint. Exactly one of \p mapping /
  /// \p buffer backs the lazy arena views of the returned document.
  static Result<StoredDocument> LoadV2(
      std::string_view full, std::string_view data, common::ThreadPool* pool,
      std::shared_ptr<common::MappedFile> mapping,
      std::unique_ptr<std::string> buffer);
};

}  // namespace vpbn::storage
