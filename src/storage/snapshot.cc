#include "storage/snapshot.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "common/compress.h"
#include "common/hash.h"
#include "common/varint.h"
#include "index/value_index.h"
#include "pbn/packed.h"
#include "xml/binary_io.h"
#include "xml/serializer.h"

namespace vpbn::storage {

namespace {

constexpr std::string_view kMagic = "VPSN";

/// \name v2 section plumbing
/// @{

constexpr size_t kPageSize = 4096;
constexpr uint8_t kSectionDoc = 1;
constexpr uint8_t kSectionArenas = 2;
constexpr uint8_t kSectionValues = 3;
constexpr uint8_t kSectionStats = 4;  // optional; absent in older snapshots
// Partition metadata written by older versions. Still a legal kind so
// their files load; the loader ignores its payload.
constexpr uint8_t kSectionLegacyParts = 5;
constexpr uint8_t kMaxSectionKind = kSectionLegacyParts;
// zlib's worst-case expansion bound, used to cap attacker-chosen raw sizes
// before allocating.
constexpr uint64_t kMaxInflateRatio = 1032;

void PutFixed64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint64_t GetFixed64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

/// Frames one section blob: u8 codec (0 stored / 1 deflate) | varint
/// raw_size | varint payload_size | payload. Deflates when zlib is in the
/// build and it actually shrinks the bytes.
void PutBlob(std::string* out, std::string_view raw) {
  std::string deflated;
  bool use_deflate = common::CompressionAvailable() && raw.size() >= 64 &&
                     common::Deflate(raw, &deflated).ok() &&
                     deflated.size() < raw.size();
  out->push_back(use_deflate ? 1 : 0);
  PutVarint64(out, raw.size());
  std::string_view payload = use_deflate ? std::string_view(deflated) : raw;
  PutVarint64(out, payload.size());
  out->append(payload);
}

struct BlobView {
  std::string_view payload;  ///< stored or deflated bytes, in place
  uint64_t raw_size = 0;
  bool deflated = false;
};

Result<BlobView> GetBlob(std::string_view* in) {
  if (in->empty()) {
    return Status::InvalidArgument("snapshot: truncated blob header");
  }
  uint8_t codec = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  if (codec > 1) {
    return Status::InvalidArgument("snapshot: unknown blob codec");
  }
  BlobView out;
  out.deflated = codec == 1;
  VPBN_ASSIGN_OR_RETURN(out.raw_size, GetVarint64(in));
  VPBN_ASSIGN_OR_RETURN(uint64_t payload_size, GetVarint64(in));
  if (payload_size > in->size()) {
    return Status::InvalidArgument("snapshot: truncated blob payload");
  }
  if (out.deflated) {
    if (!common::CompressionAvailable()) {
      return Status::InvalidArgument(
          "snapshot: compressed section but compiled without zlib");
    }
    if (out.raw_size > (payload_size + 64) * kMaxInflateRatio) {
      return Status::InvalidArgument("snapshot: implausible inflated size");
    }
  } else if (out.raw_size != payload_size) {
    return Status::InvalidArgument("snapshot: stored blob size mismatch");
  }
  out.payload = in->substr(0, payload_size);
  in->remove_prefix(payload_size);
  return out;
}

/// Reads a blob and materializes its raw bytes: in place for stored blobs,
/// via \p scratch for deflated ones.
Result<std::string_view> ReadBlob(std::string_view* in, std::string* scratch) {
  VPBN_ASSIGN_OR_RETURN(BlobView blob, GetBlob(in));
  if (!blob.deflated) return blob.payload;
  VPBN_RETURN_NOT_OK(
      common::Inflate(blob.payload, blob.raw_size, scratch));
  return std::string_view(*scratch);
}

/// @}

void PutString(std::string* out, std::string_view s) {
  PutVarint64(out, s.size());
  out->append(s);
}

/// \name STATS section codec
///
/// Per covered type, the precomputed ColumnStats. Doubles store as fixed64
/// bit patterns (not decimal round trips), so restored statistics are
/// bit-identical to the computed ones and the restore-equals-build
/// invariants keep holding exactly.
/// @{

Result<uint64_t> GetFixed64Checked(std::string_view* in) {
  if (in->size() < 8) {
    return Status::InvalidArgument("snapshot: truncated fixed64");
  }
  uint64_t v = GetFixed64(in->data());
  in->remove_prefix(8);
  return v;
}

void PutDoubleBits(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutFixed64(out, bits);
}

Result<double> GetDoubleBits(std::string_view* in) {
  VPBN_ASSIGN_OR_RETURN(uint64_t bits, GetFixed64Checked(in));
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

void PutColumnStats(std::string* out, const idx::ColumnStats& s) {
  PutVarint64(out, s.row_count);
  PutVarint64(out, s.numeric_count);
  PutVarint64(out, s.distinct_terms);
  PutVarint64(out, s.max_term_rows);
  PutDoubleBits(out, s.min_value);
  PutDoubleBits(out, s.max_value);
  PutVarint64(out, s.bucket_max.size());
  for (size_t i = 0; i < s.bucket_max.size(); ++i) {
    PutDoubleBits(out, s.bucket_max[i]);
    PutVarint64(out, s.bucket_rows[i]);
    PutVarint64(out, s.bucket_distinct[i]);
  }
  PutVarint64(out, s.zone_min.size());
  for (size_t i = 0; i < s.zone_min.size(); ++i) {
    PutDoubleBits(out, s.zone_min[i]);
    PutDoubleBits(out, s.zone_max[i]);
    PutVarint32(out, s.zone_term_min[i]);
    PutVarint32(out, s.zone_term_max[i]);
  }
}

Status GetColumnStats(std::string_view* in, idx::ColumnStats* s) {
  VPBN_ASSIGN_OR_RETURN(s->row_count, GetVarint64(in));
  VPBN_ASSIGN_OR_RETURN(s->numeric_count, GetVarint64(in));
  VPBN_ASSIGN_OR_RETURN(s->distinct_terms, GetVarint64(in));
  VPBN_ASSIGN_OR_RETURN(s->max_term_rows, GetVarint64(in));
  VPBN_ASSIGN_OR_RETURN(s->min_value, GetDoubleBits(in));
  VPBN_ASSIGN_OR_RETURN(s->max_value, GetDoubleBits(in));
  VPBN_ASSIGN_OR_RETURN(uint64_t buckets, GetVarint64(in));
  if (buckets > idx::ColumnStats::kMaxBuckets) {
    return Status::InvalidArgument("snapshot: too many histogram buckets");
  }
  s->bucket_max.reserve(buckets);
  s->bucket_rows.reserve(buckets);
  s->bucket_distinct.reserve(buckets);
  for (uint64_t i = 0; i < buckets; ++i) {
    VPBN_ASSIGN_OR_RETURN(double bmax, GetDoubleBits(in));
    VPBN_ASSIGN_OR_RETURN(uint64_t rows, GetVarint64(in));
    VPBN_ASSIGN_OR_RETURN(uint64_t distinct, GetVarint64(in));
    s->bucket_max.push_back(bmax);
    s->bucket_rows.push_back(rows);
    s->bucket_distinct.push_back(distinct);
  }
  VPBN_ASSIGN_OR_RETURN(uint64_t zones, GetVarint64(in));
  // Each zone entry is at least 18 bytes (two fixed64s + two varints), so
  // an attacker-chosen count cannot force an oversized allocation.
  if (zones > in->size() / 18) {
    return Status::InvalidArgument("snapshot: truncated stats zones");
  }
  s->zone_min.reserve(zones);
  s->zone_max.reserve(zones);
  s->zone_term_min.reserve(zones);
  s->zone_term_max.reserve(zones);
  for (uint64_t i = 0; i < zones; ++i) {
    VPBN_ASSIGN_OR_RETURN(double zmin, GetDoubleBits(in));
    VPBN_ASSIGN_OR_RETURN(double zmax, GetDoubleBits(in));
    VPBN_ASSIGN_OR_RETURN(uint32_t tmin, GetVarint32(in));
    VPBN_ASSIGN_OR_RETURN(uint32_t tmax, GetVarint32(in));
    s->zone_min.push_back(zmin);
    s->zone_max.push_back(zmax);
    s->zone_term_min.push_back(tmin);
    s->zone_term_max.push_back(tmax);
  }
  return Status::OK();
}

/// @}

Result<std::string_view> GetString(std::string_view* in) {
  VPBN_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(in));
  if (len > in->size()) {
    return Status::InvalidArgument("snapshot: truncated string");
  }
  std::string_view s = in->substr(0, len);
  in->remove_prefix(len);
  return s;
}

// Consumes the canonical ordered encoding of component \p v at \p p: one
// length byte holding the minimal payload width (1..4), then that many
// big-endian payload bytes (pbn/codec.cc). Returns the bytes consumed, or
// 0 when the bytes there encode anything else — including a padded
// (non-minimal) encoding of the same value, which memcmp document order
// cannot tolerate.
size_t MatchOrderedComponent(const char* p, size_t avail, uint32_t v) {
  size_t nbytes = v > 0xFFFFFF ? 4 : v > 0xFFFF ? 3 : v > 0xFF ? 2 : 1;
  if (avail < 1 + nbytes) return 0;
  if (static_cast<uint8_t>(p[0]) != nbytes) return 0;
  for (size_t i = 0; i < nbytes; ++i) {
    if (static_cast<uint8_t>(p[1 + i]) !=
        static_cast<uint8_t>(v >> (8 * (nbytes - 1 - i)))) {
      return 0;
    }
  }
  return 1 + nbytes;
}

// Verifies that the packed per-type lists hold exactly the canonical
// numbering of \p doc: a root's number is one component, its 1-based
// forest index; a child's is its parent's bytes (terminator dropped) plus
// the canonical encoding of its 1-based child ordinal plus the
// terminator. Every node is either a root or a child of exactly one
// parent, so the two loops together check every number — uniqueness,
// agreement with the tree, and document order of each list (FromArena
// already enforced strict byte order) all follow.
Status ValidateCanonicalNumbers(
    const xml::Document& doc, const dg::DataGuide& guide,
    const std::vector<dg::TypeId>& node_types,
    const std::vector<uint32_t>& node_rows,
    const std::vector<num::PackedPbnList>& packed) {
  auto ref_of = [&](xml::NodeId id) {
    return packed[node_types[id]][node_rows[id]];
  };
  const std::vector<xml::NodeId>& roots = doc.roots();
  for (size_t i = 0; i < roots.size(); ++i) {
    if (guide.parent(node_types[roots[i]]) != dg::kNullType) {
      return Status::InvalidArgument(
          "snapshot: root node carries a non-root type");
    }
    num::PackedPbnRef ref = ref_of(roots[i]);
    size_t used = MatchOrderedComponent(ref.data(), ref.size_bytes(),
                                        static_cast<uint32_t>(i + 1));
    if (ref.length() != 1 || used == 0 ||
        used + 1 != ref.size_bytes() || ref.data()[used] != '\0') {
      return Status::InvalidArgument(
          "snapshot: root number is not canonical");
    }
  }
  for (xml::NodeId id = 0; id < doc.num_nodes(); ++id) {
    num::PackedPbnRef parent = ref_of(id);
    const size_t ps = parent.size_bytes();
    uint32_t ordinal = 0;
    for (xml::NodeId c : xml::ChildRange(doc, id)) {
      ++ordinal;
      num::PackedPbnRef child = ref_of(c);
      bool ok = guide.parent(node_types[c]) == node_types[id] &&
                child.length() == parent.length() + 1 &&
                child.size_bytes() > ps &&
                std::memcmp(child.data(), parent.data(), ps - 1) == 0;
      if (ok) {
        size_t used = MatchOrderedComponent(
            child.data() + ps - 1, child.size_bytes() - (ps - 1), ordinal);
        ok = used != 0 && ps - 1 + used + 1 == child.size_bytes() &&
             child.data()[child.size_bytes() - 1] == '\0';
      }
      if (!ok) {
        return Status::InvalidArgument(
            "snapshot: child number is not canonical");
      }
    }
  }
  return Status::OK();
}

}  // namespace

void Snapshot::WriteValues(const StoredDocument& sd, std::string* outp) {
  std::string& out = *outp;
  const dg::DataGuide& guide = sd.guide_;
  // Value index: dictionary terms in term-id order, then per-type covered
  // columns, then per-type attribute columns (sorted by name, so the bytes
  // are deterministic regardless of hash-map iteration order).
  const idx::ValueIndex& vi = sd.value_index_;
  const idx::Dictionary& dict = vi.dict();
  PutVarint64(&out, dict.size());
  for (uint32_t i = 0; i < dict.size(); ++i) PutString(&out, dict.term(i));
  for (dg::TypeId t = 0; t < guide.num_types(); ++t) {
    const idx::TypeColumn* col = vi.Column(t);
    out.push_back(col != nullptr ? 1 : 0);
    if (col != nullptr) {
      for (uint32_t id : col->term_ids) PutVarint32(&out, id);
    }
  }
  for (dg::TypeId t = 0; t < guide.num_types(); ++t) {
    const auto& by_name = vi.attrs_[t];
    std::vector<const std::string*> names;
    names.reserve(by_name.size());
    for (const auto& [name, col] : by_name) names.push_back(&name);
    std::sort(names.begin(), names.end(),
              [](const std::string* a, const std::string* b) { return *a < *b; });
    PutVarint64(&out, names.size());
    for (const std::string* name : names) {
      PutString(&out, *name);
      // 0 encodes an absent cell (kNoTerm); real ids shift up by one.
      for (uint32_t id : by_name.at(*name).term_ids) {
        PutVarint32(&out, id == idx::kNoTerm ? 0 : id + 1);
      }
    }
  }
}

std::string Snapshot::Write(const StoredDocument& sd, bool stats_section) {
  sd.EnsureAllPacked();
  const dg::DataGuide& guide = sd.guide_;

  // Section payloads first; the directory needs their sizes. Only the
  // document, the blocked arenas and the value index are stored — text,
  // ranges, guide and the node-type/row columns are re-derived on load by
  // Build's own deterministic phases.
  std::string doc_sec;
  PutBlob(&doc_sec, xml::WriteBinary(sd.doc()));

  std::string arena_sec;
  PutVarint64(&arena_sec, guide.num_types());
  for (dg::TypeId t = 0; t < guide.num_types(); ++t) {
    const num::PackedPbnList& list = sd.packed_type_index_[t];
    PutVarint64(&arena_sec, list.size());
    PutBlob(&arena_sec, num::EncodeBlocked(list));
  }

  std::string values_raw;
  WriteValues(sd, &values_raw);
  std::string values_sec;
  PutBlob(&values_sec, values_raw);

  // Optional STATS section: the precomputed per-column statistics, so a
  // load can move them in instead of recomputing. Layout mirrors the
  // values section's coverage flags: per type a u8 flag, then the stats.
  std::string stats_sec;
  if (stats_section) {
    std::string stats_raw;
    PutVarint64(&stats_raw, guide.num_types());
    for (dg::TypeId t = 0; t < guide.num_types(); ++t) {
      const idx::TypeColumn* col = sd.value_index_.Column(t);
      stats_raw.push_back(col != nullptr ? 1 : 0);
      if (col != nullptr) PutColumnStats(&stats_raw, col->stats);
    }
    PutBlob(&stats_sec, stats_raw);
  }

  std::string out;
  out.append(kMagic);
  PutVarint32(&out, 2);
  const size_t checksum_pos = out.size();
  out.append(8, '\0');  // patched below

  // Directory: u8 count, then (u8 kind, u64 offset, u64 size) per section.
  // Offsets are absolute and page-aligned so a mapped load can hand out
  // naturally aligned section views.
  std::vector<const std::string*> payloads = {&doc_sec, &arena_sec,
                                              &values_sec};
  std::vector<uint8_t> kinds = {kSectionDoc, kSectionArenas, kSectionValues};
  if (stats_section) {
    payloads.push_back(&stats_sec);
    kinds.push_back(kSectionStats);
  }
  const size_t n_sections = payloads.size();
  out.push_back(static_cast<char>(n_sections));
  size_t off = out.size() + n_sections * 17;
  std::vector<uint64_t> offsets(n_sections);
  for (size_t i = 0; i < n_sections; ++i) {
    off = (off + kPageSize - 1) / kPageSize * kPageSize;
    offsets[i] = off;
    out.push_back(static_cast<char>(kinds[i]));
    PutFixed64(&out, offsets[i]);
    PutFixed64(&out, payloads[i]->size());
    off += payloads[i]->size();
  }
  for (size_t i = 0; i < n_sections; ++i) {
    out.resize(offsets[i], '\0');
    out.append(*payloads[i]);
  }

  const uint64_t checksum =
      common::Hash64(std::string_view(out).substr(checksum_pos + 8));
  std::string sum;
  PutFixed64(&sum, checksum);
  out.replace(checksum_pos, 8, sum);
  return out;
}

Result<StoredDocument> Snapshot::Load(std::string_view data) {
  return LoadOwned(data, nullptr, nullptr);
}

Result<StoredDocument> Snapshot::LoadOwned(
    std::string_view full, std::shared_ptr<common::MappedFile> mapping,
    std::unique_ptr<std::string> buffer) {
  if (full.substr(0, kMagic.size()) != kMagic) {
    return Status::InvalidArgument("snapshot: bad magic");
  }
  std::string_view body = full.substr(kMagic.size());
  VPBN_ASSIGN_OR_RETURN(uint32_t version, GetVarint32(&body));
  if (version == 1) {
    // A v1 load copies everything out; the mapping/buffer (if any) is
    // dropped, but the on-disk size is still worth reporting.
    auto loaded = LoadV1(body);
    if (loaded.ok()) loaded->snapshot_bytes_ = full.size();
    return loaded;
  }
  if (version == 2) {
    if (mapping == nullptr && buffer == nullptr) {
      // The lazy arena views must outlive the caller's buffer, so an
      // in-memory v2 load retains its own copy of the bytes.
      buffer = std::make_unique<std::string>(full);
      std::string_view owned = *buffer;
      return LoadV2(owned, owned.substr(full.size() - body.size()), nullptr,
                    std::move(buffer));
    }
    return LoadV2(full, body, std::move(mapping), std::move(buffer));
  }
  return Status::InvalidArgument("snapshot: unsupported version " +
                                 std::to_string(version));
}

Result<StoredDocument> Snapshot::LoadV1(std::string_view data) {
  auto load_start = std::chrono::steady_clock::now();

  // Document.
  VPBN_ASSIGN_OR_RETURN(std::string_view doc_blob, GetString(&data));
  Result<xml::Document> doc_r = xml::ReadBinary(doc_blob);
  if (!doc_r.ok()) {
    // ReadBinary distinguishes Internal (id drift); from the snapshot
    // reader's point of view every inner failure is just corrupt input.
    return Status::InvalidArgument("snapshot: document section: " +
                                   doc_r.status().message());
  }
  StoredDocument out;
  out.owned_doc_ =
      std::make_unique<xml::Document>(std::move(doc_r).ValueUnsafe());
  out.doc_ = out.owned_doc_.get();
  const xml::Document& doc = *out.doc_;
  const size_t n = doc.num_nodes();

  // Stored text + ranges.
  VPBN_ASSIGN_OR_RETURN(std::string_view text, GetString(&data));
  out.text_.assign(text);
  out.ranges_.reserve(n);
  for (size_t id = 0; id < n; ++id) {
    VPBN_ASSIGN_OR_RETURN(uint64_t start, GetVarint64(&data));
    VPBN_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(&data));
    if (start > out.text_.size() || len > out.text_.size() - start) {
      return Status::InvalidArgument("snapshot: node range out of bounds");
    }
    out.ranges_.emplace_back(start, start + len);
  }

  // DataGuide replay. AddType must mint exactly the recorded id: a
  // duplicate (parent, label) pair would dedupe to an earlier type and
  // shift every id after it.
  VPBN_ASSIGN_OR_RETURN(uint64_t num_types64, GetVarint64(&data));
  if (num_types64 > data.size()) {
    return Status::InvalidArgument("snapshot: type count exceeds input");
  }
  const size_t num_types = static_cast<size_t>(num_types64);
  for (size_t t = 0; t < num_types; ++t) {
    VPBN_ASSIGN_OR_RETURN(std::string_view label, GetString(&data));
    VPBN_ASSIGN_OR_RETURN(uint32_t parent_plus1, GetVarint32(&data));
    dg::TypeId parent =
        parent_plus1 == 0 ? dg::kNullType : parent_plus1 - 1;
    if (parent != dg::kNullType && parent >= t) {
      return Status::InvalidArgument(
          "snapshot: type parent appears after child");
    }
    if (out.guide_.AddType(label, parent) != t) {
      return Status::InvalidArgument("snapshot: duplicate dataguide type");
    }
  }

  // Per-type instance lists (which carry the node-type and node-row
  // columns: a node's type is the list it appears in, its row its
  // position) followed by the packed arena for each type.
  out.node_types_.assign(n, dg::kNullType);
  out.node_rows_.assign(n, 0);
  out.type_node_index_.assign(num_types, {});
  std::vector<std::string_view> arenas(num_types);
  size_t assigned = 0;
  for (size_t t = 0; t < num_types; ++t) {
    VPBN_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&data));
    if (count > n - assigned) {
      return Status::InvalidArgument(
          "snapshot: type instance counts exceed node count");
    }
    std::vector<xml::NodeId>& ids = out.type_node_index_[t];
    ids.reserve(count);
    for (uint64_t row = 0; row < count; ++row) {
      VPBN_ASSIGN_OR_RETURN(uint32_t id, GetVarint32(&data));
      if (id >= n) {
        return Status::InvalidArgument("snapshot: node id out of range");
      }
      if (out.node_types_[id] != dg::kNullType) {
        return Status::InvalidArgument(
            "snapshot: node appears in two type lists");
      }
      if (doc.IsText(id) != out.guide_.IsTextType(t)) {
        return Status::InvalidArgument(
            "snapshot: node kind does not match its type");
      }
      out.node_types_[id] = static_cast<dg::TypeId>(t);
      out.node_rows_[id] = static_cast<uint32_t>(row);
      ids.push_back(id);
    }
    assigned += count;
    VPBN_ASSIGN_OR_RETURN(arenas[t], GetString(&data));
  }
  if (assigned != n) {
    return Status::InvalidArgument(
        "snapshot: type lists do not cover every node");
  }

  // Packed arenas: framing and sortedness re-validated per type.
  out.packed_type_index_.assign(num_types, {});
  for (size_t t = 0; t < num_types; ++t) {
    VPBN_ASSIGN_OR_RETURN(
        out.packed_type_index_[t],
        num::PackedPbnList::FromArena(std::string(arenas[t]),
                                      out.type_node_index_[t].size()));
  }

  // Structural validation: the numbering is the *canonical* numbering of
  // the tree — a root's number is its 1-based forest index, a child's is
  // its parent's plus one component holding its 1-based child ordinal. So
  // instead of materializing every Pbn and rebuilding the reverse hash to
  // check uniqueness (the old, weaker check), verify the packed bytes
  // against the tree directly: prefix-of-parent plus the canonical
  // encoding of the ordinal. This also pins the list order to document
  // order and rejects non-canonical (padded) component encodings. The
  // numbering_ member stays unhydrated; StoredDocument materializes it
  // lazily on first use.
  VPBN_RETURN_NOT_OK(ValidateCanonicalNumbers(doc, out.guide_,
                                              out.node_types_, out.node_rows_,
                                              out.packed_type_index_));
  out.numbering_ready_.store(false, std::memory_order_relaxed);

  // Value index: dictionary replayed in term-id order, then the covered
  // columns' postings and numeric rows rebuilt per type.
  VPBN_RETURN_NOT_OK(LoadValues(&data, &out));
  if (!data.empty()) {
    return Status::InvalidArgument("snapshot: trailing bytes");
  }

  out.from_snapshot_ = true;
  out.ingest_ms_ =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - load_start)
          .count();
  return out;
}

Status Snapshot::LoadValues(
    std::string_view* datap, StoredDocument* outp,
    std::vector<std::unique_ptr<idx::ColumnStats>>* stats) {
  std::string_view& data = *datap;
  StoredDocument& out = *outp;
  const size_t num_types = out.guide_.num_types();
  VPBN_ASSIGN_OR_RETURN(uint64_t term_count, GetVarint64(&data));
  if (term_count > data.size()) {
    return Status::InvalidArgument("snapshot: term count exceeds input");
  }
  idx::Dictionary* dict = out.value_index_.dict_.get();
  for (uint64_t i = 0; i < term_count; ++i) {
    VPBN_ASSIGN_OR_RETURN(std::string_view term, GetString(&data));
    if (dict->Intern(term) != i) {
      return Status::InvalidArgument("snapshot: duplicate dictionary term");
    }
  }
  out.value_index_.columns_.resize(num_types);
  out.value_index_.attrs_.resize(num_types);
  std::vector<std::unique_ptr<std::vector<uint32_t>>> col_ids(num_types);
  for (size_t t = 0; t < num_types; ++t) {
    if (data.empty()) {
      return Status::InvalidArgument("snapshot: truncated covered flag");
    }
    uint8_t flag = static_cast<uint8_t>(data[0]);
    data.remove_prefix(1);
    if (flag > 1) {
      return Status::InvalidArgument("snapshot: bad covered flag");
    }
    bool covered = idx::ValueIndex::GuideCovers(out.guide_, t);
    if ((flag != 0) != covered) {
      // Coverage is a function of the guide; a mismatched flag means the
      // column layout cannot line up with what the query layer expects.
      return Status::InvalidArgument("snapshot: coverage flag mismatch");
    }
    if (!covered) continue;
    size_t rows = out.type_node_index_[t].size();
    auto ids = std::make_unique<std::vector<uint32_t>>();
    ids->reserve(rows);
    for (size_t row = 0; row < rows; ++row) {
      VPBN_ASSIGN_OR_RETURN(uint32_t id, GetVarint32(&data));
      ids->push_back(id);
    }
    col_ids[t] = std::move(ids);
  }
  for (size_t t = 0; t < num_types; ++t) {
    if (col_ids[t] == nullptr) continue;
    idx::ColumnStats* pre =
        stats != nullptr && t < stats->size() ? (*stats)[t].get() : nullptr;
    VPBN_ASSIGN_OR_RETURN(idx::TypeColumn col,
                          idx::ValueIndex::ColumnFromTermIds(
                              std::move(*col_ids[t]), dict, pre));
    out.value_index_.columns_[t] =
        std::make_unique<idx::TypeColumn>(std::move(col));
  }
  for (size_t t = 0; t < num_types; ++t) {
    VPBN_ASSIGN_OR_RETURN(uint64_t attr_count, GetVarint64(&data));
    if (attr_count > data.size()) {
      return Status::InvalidArgument("snapshot: attr count exceeds input");
    }
    size_t rows = out.type_node_index_[t].size();
    for (uint64_t a = 0; a < attr_count; ++a) {
      VPBN_ASSIGN_OR_RETURN(std::string_view name, GetString(&data));
      idx::AttrColumn col;
      col.term_ids.reserve(rows);
      for (size_t row = 0; row < rows; ++row) {
        VPBN_ASSIGN_OR_RETURN(uint32_t v, GetVarint32(&data));
        if (v == 0) {
          col.term_ids.push_back(idx::kNoTerm);
        } else if (v - 1 >= dict->size()) {
          return Status::InvalidArgument(
              "snapshot: attribute term id out of range");
        } else {
          col.term_ids.push_back(v - 1);
        }
      }
      if (!out.value_index_.attrs_[t]
               .emplace(std::string(name), std::move(col))
               .second) {
        return Status::InvalidArgument(
            "snapshot: duplicate attribute column");
      }
    }
  }
  return Status::OK();
}

Result<StoredDocument> Snapshot::LoadV2(
    std::string_view full, std::string_view data,
    std::shared_ptr<common::MappedFile> mapping,
    std::unique_ptr<std::string> buffer) {
  auto load_start = std::chrono::steady_clock::now();

  // Integrity first: the whole-file checksum is what lets the v2 path skip
  // v1's per-node canonical-numbering walk and defer arena decoding.
  if (data.size() < 8) {
    return Status::InvalidArgument("snapshot: truncated checksum");
  }
  const uint64_t checksum = GetFixed64(data.data());
  data.remove_prefix(8);
  if (common::Hash64(data) != checksum) {
    return Status::InvalidArgument("snapshot: checksum mismatch");
  }

  // Section directory.
  if (data.empty()) {
    return Status::InvalidArgument("snapshot: missing section directory");
  }
  const size_t n_sections = static_cast<uint8_t>(data[0]);
  data.remove_prefix(1);
  if (n_sections < 3 || n_sections > 8 || data.size() < n_sections * 17) {
    return Status::InvalidArgument("snapshot: bad section directory");
  }
  std::string_view sections[kMaxSectionKind + 1];
  bool seen[kMaxSectionKind + 1] = {};
  for (size_t i = 0; i < n_sections; ++i) {
    const uint8_t kind = static_cast<uint8_t>(data[0]);
    const uint64_t off = GetFixed64(data.data() + 1);
    const uint64_t size = GetFixed64(data.data() + 9);
    data.remove_prefix(17);
    if (kind < kSectionDoc || kind > kMaxSectionKind || seen[kind]) {
      return Status::InvalidArgument("snapshot: bad section kind");
    }
    if (off > full.size() || size > full.size() - off) {
      return Status::InvalidArgument("snapshot: section out of bounds");
    }
    seen[kind] = true;
    sections[kind] = full.substr(off, size);
  }
  if (!seen[kSectionDoc] || !seen[kSectionArenas] || !seen[kSectionValues]) {
    return Status::InvalidArgument("snapshot: missing section");
  }

  // Document.
  std::string_view doc_view = sections[kSectionDoc];
  std::string doc_scratch;
  VPBN_ASSIGN_OR_RETURN(std::string_view doc_blob,
                        ReadBlob(&doc_view, &doc_scratch));
  if (!doc_view.empty()) {
    return Status::InvalidArgument("snapshot: trailing document bytes");
  }
  Result<xml::Document> doc_r = xml::ReadBinary(doc_blob);
  if (!doc_r.ok()) {
    return Status::InvalidArgument("snapshot: document section: " +
                                   doc_r.status().message());
  }
  StoredDocument out;
  out.owned_doc_ =
      std::make_unique<xml::Document>(std::move(doc_r).ValueUnsafe());
  out.doc_ = out.owned_doc_.get();
  const xml::Document& doc = *out.doc_;
  const size_t n = doc.num_nodes();

  // Re-derive what v1 stored: the stored text and node ranges, the
  // DataGuide and the node-type column — Build's own phase 1, minus the
  // numbering pass (the arenas carry every number).
  out.ranges_.assign(n, {0, 0});
  out.guide_ = dg::DataGuide::Build(doc, &out.node_types_);
  xml::SerializeForestWithRanges(doc, &out.text_, &out.ranges_);
  const size_t num_types = out.guide_.num_types();

  // Phase 2 of Build: rows within each type's instance list, in document
  // order.
  out.AssignTypeRows();

  // Arena directory: per-type instance counts are validated against the
  // derived lists now; the blob bytes stay in the backing store and decode
  // on first touch (stored_document.cc DecodeLazyArena).
  std::string_view ar = sections[kSectionArenas];
  VPBN_ASSIGN_OR_RETURN(uint64_t arena_types, GetVarint64(&ar));
  if (arena_types != num_types) {
    return Status::InvalidArgument("snapshot: arena type count mismatch");
  }
  out.lazy_arenas_.resize(num_types);
  for (size_t t = 0; t < num_types; ++t) {
    VPBN_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&ar));
    if (count != out.type_node_index_[t].size()) {
      return Status::InvalidArgument(
          "snapshot: arena instance count mismatch");
    }
    VPBN_ASSIGN_OR_RETURN(BlobView blob, GetBlob(&ar));
    out.lazy_arenas_[t] =
        StoredDocument::LazyArena{blob.payload, blob.raw_size, blob.deflated};
  }
  if (!ar.empty()) {
    return Status::InvalidArgument("snapshot: trailing arena bytes");
  }
  out.packed_type_index_.assign(num_types, {});
  out.packed_ready_ =
      std::make_unique<std::atomic<uint8_t>[]>(num_types);
  for (size_t t = 0; t < num_types; ++t) {
    out.packed_ready_[t].store(0, std::memory_order_relaxed);
  }
  out.numbering_ready_.store(false, std::memory_order_relaxed);

  // Optional STATS section: parse before the values so the column restore
  // can move the statistics in instead of recomputing them. Coverage flags
  // must agree with the guide, exactly as the values section's must.
  std::vector<std::unique_ptr<idx::ColumnStats>> stats;
  if (seen[kSectionStats]) {
    std::string_view stats_view = sections[kSectionStats];
    std::string stats_scratch;
    VPBN_ASSIGN_OR_RETURN(std::string_view stats_raw,
                          ReadBlob(&stats_view, &stats_scratch));
    if (!stats_view.empty()) {
      return Status::InvalidArgument("snapshot: trailing stats bytes");
    }
    std::string_view cursor = stats_raw;
    VPBN_ASSIGN_OR_RETURN(uint64_t stats_types, GetVarint64(&cursor));
    if (stats_types != num_types) {
      return Status::InvalidArgument("snapshot: stats type count mismatch");
    }
    stats.resize(num_types);
    for (size_t t = 0; t < num_types; ++t) {
      if (cursor.empty()) {
        return Status::InvalidArgument("snapshot: truncated stats flag");
      }
      const uint8_t flag = static_cast<uint8_t>(cursor[0]);
      cursor.remove_prefix(1);
      if (flag > 1) {
        return Status::InvalidArgument("snapshot: bad stats flag");
      }
      const bool covered = idx::ValueIndex::GuideCovers(out.guide_, t);
      if ((flag != 0) != covered) {
        return Status::InvalidArgument("snapshot: stats coverage mismatch");
      }
      if (!covered) continue;
      auto s = std::make_unique<idx::ColumnStats>();
      VPBN_RETURN_NOT_OK(GetColumnStats(&cursor, s.get()));
      stats[t] = std::move(s);
    }
    if (!cursor.empty()) {
      return Status::InvalidArgument("snapshot: trailing stats bytes");
    }
  }

  // Values.
  std::string_view values_view = sections[kSectionValues];
  std::string values_scratch;
  VPBN_ASSIGN_OR_RETURN(std::string_view values_raw,
                        ReadBlob(&values_view, &values_scratch));
  if (!values_view.empty()) {
    return Status::InvalidArgument("snapshot: trailing value bytes");
  }
  std::string_view values_cursor = values_raw;
  VPBN_RETURN_NOT_OK(LoadValues(&values_cursor, &out,
                                seen[kSectionStats] ? &stats : nullptr));
  if (!values_cursor.empty()) {
    return Status::InvalidArgument("snapshot: trailing bytes");
  }

  out.mapping_ = std::move(mapping);
  out.snapshot_buffer_ = std::move(buffer);
  out.snapshot_bytes_ = full.size();
  out.mapped_bytes_ = out.mapping_ != nullptr ? full.size() : 0;
  out.from_snapshot_ = true;
  out.ingest_ms_ =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - load_start)
          .count();
  return out;
}

Status Snapshot::WriteFile(const StoredDocument& sd, const std::string& path) {
  std::string bytes = Write(sd);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    return Status::InvalidArgument("snapshot: cannot open " + path +
                                   " for writing");
  }
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  f.close();
  if (!f) {
    return Status::InvalidArgument("snapshot: write to " + path + " failed");
  }
  return Status::OK();
}

Result<StoredDocument> Snapshot::LoadFile(const std::string& path,
                                          bool use_mmap) {
  if (use_mmap) {
    auto mapped = common::MappedFile::Open(path);
    if (!mapped.ok()) return mapped.status();
    std::shared_ptr<common::MappedFile> mf = std::move(mapped).ValueUnsafe();
    std::string_view full = mf->bytes();
    // A v2 document keeps the mapping alive and decodes arenas straight
    // out of it; a v1 load copies everything and drops the mapping on
    // return.
    return LoadOwned(full, std::move(mf), nullptr);
  }
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return Status::InvalidArgument("snapshot: cannot open " + path);
  }
  auto bytes = std::make_unique<std::string>(
      (std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  if (f.bad()) {
    return Status::InvalidArgument("snapshot: read from " + path + " failed");
  }
  std::string_view full = *bytes;
  return LoadOwned(full, nullptr, std::move(bytes));
}

}  // namespace vpbn::storage
