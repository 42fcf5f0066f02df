#include "storage/stored_document.h"

#include <chrono>
#include <mutex>

#include "common/compress.h"
#include "pbn/codec.h"
#include "xml/serializer.h"

namespace vpbn::storage {

StoredDocument::StoredDocument(StoredDocument&& other) noexcept
    : doc_(other.doc_),
      owned_doc_(std::move(other.owned_doc_)),
      ingest_ms_(other.ingest_ms_),
      from_snapshot_(other.from_snapshot_),
      text_(std::move(other.text_)),
      numbering_(std::move(other.numbering_)),
      numbering_ready_(other.numbering_ready_.load()),
      guide_(std::move(other.guide_)),
      node_types_(std::move(other.node_types_)),
      node_rows_(std::move(other.node_rows_)),
      value_index_(std::move(other.value_index_)),
      ranges_(std::move(other.ranges_)),
      packed_type_index_(std::move(other.packed_type_index_)),
      type_node_index_(std::move(other.type_node_index_)),
      mapping_(std::move(other.mapping_)),
      snapshot_buffer_(std::move(other.snapshot_buffer_)),
      lazy_arenas_(std::move(other.lazy_arenas_)),
      packed_ready_(std::move(other.packed_ready_)),
      snapshot_bytes_(other.snapshot_bytes_),
      mapped_bytes_(other.mapped_bytes_) {}

StoredDocument& StoredDocument::operator=(StoredDocument&& other) noexcept {
  if (this != &other) {
    doc_ = other.doc_;
    owned_doc_ = std::move(other.owned_doc_);
    ingest_ms_ = other.ingest_ms_;
    from_snapshot_ = other.from_snapshot_;
    text_ = std::move(other.text_);
    numbering_ = std::move(other.numbering_);
    numbering_ready_.store(other.numbering_ready_.load());
    guide_ = std::move(other.guide_);
    node_types_ = std::move(other.node_types_);
    node_rows_ = std::move(other.node_rows_);
    value_index_ = std::move(other.value_index_);
    ranges_ = std::move(other.ranges_);
    packed_type_index_ = std::move(other.packed_type_index_);
    type_node_index_ = std::move(other.type_node_index_);
    mapping_ = std::move(other.mapping_);
    snapshot_buffer_ = std::move(other.snapshot_buffer_);
    lazy_arenas_ = std::move(other.lazy_arenas_);
    packed_ready_ = std::move(other.packed_ready_);
    snapshot_bytes_ = other.snapshot_bytes_;
    mapped_bytes_ = other.mapped_bytes_;
  }
  return *this;
}

StoredDocument StoredDocument::Build(const xml::Document& doc) {
  auto start = std::chrono::steady_clock::now();
  StoredDocument out;
  out.doc_ = &doc;
  out.ranges_.assign(doc.num_nodes(), {0, 0});

  // Phase 1 — serialize / number / DataGuide + type-of-node: three
  // independent read-only passes over the document, each writing its own
  // member.
  out.numbering_ = num::Numbering::Number(doc);
  out.guide_ = dg::DataGuide::Build(doc, &out.node_types_);
  xml::SerializeForestWithRanges(doc, &out.text_, &out.ranges_);

  // Phase 2 — each node's row within its type's instance list
  // (AssignTypeRows, shared with the v2 snapshot loader).
  out.packed_type_index_.assign(out.guide_.num_types(), {});
  out.AssignTypeRows();

  // Phase 3 — pack the per-type PBN arenas. The instance lists are already
  // document-ordered, so each arena comes out sorted — what the memcmp
  // binary searches and packed structural joins rely on.
  for (size_t t = 0; t < out.guide_.num_types(); ++t) {
    const std::vector<xml::NodeId>& ids = out.type_node_index_[t];
    num::PackedPbnList& list = out.packed_type_index_[t];
    list.Reserve(ids.size());
    for (xml::NodeId id : ids) list.Append(out.numbering_.OfNode(id));
  }

  // Phase 4 — value-index columns.
  out.value_index_ =
      idx::ValueIndex::Build(doc, out.guide_, out.type_node_index_);

  out.ingest_ms_ =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

StoredDocument StoredDocument::Build(xml::Document&& doc) {
  auto owned = std::make_unique<xml::Document>(std::move(doc));
  StoredDocument out = Build(*owned);
  out.owned_doc_ = std::move(owned);
  out.doc_ = out.owned_doc_.get();
  return out;
}

void StoredDocument::AssignTypeRows() {
  // Cheap (two pushes per node) and inherently ordered, so not worth
  // fanning out. Counting first sizes every list exactly: no growth
  // copies, and no slack for MemoryUsage to count.
  std::vector<uint32_t> counts(guide_.num_types(), 0);
  for (dg::TypeId t : node_types_) ++counts[t];
  type_node_index_.assign(guide_.num_types(), {});
  for (size_t t = 0; t < counts.size(); ++t) {
    type_node_index_[t].reserve(counts[t]);
  }
  node_rows_.assign(doc_->num_nodes(), 0);
  for (xml::NodeId id : doc_->DocumentOrder()) {
    std::vector<xml::NodeId>& ids = type_node_index_[node_types_[id]];
    node_rows_[id] = static_cast<uint32_t>(ids.size());
    ids.push_back(id);
  }
}

void StoredDocument::HydrateNumbering() const {
  std::lock_guard<std::mutex> lock(numbering_mu_);
  if (numbering_ready_.load(std::memory_order_relaxed)) return;
  EnsureAllPacked();
  std::vector<num::Pbn> numbers(doc_->num_nodes());
  for (size_t t = 0; t < type_node_index_.size(); ++t) {
    const std::vector<xml::NodeId>& ids = type_node_index_[t];
    for (size_t row = 0; row < ids.size(); ++row) {
      numbers[ids[row]] = packed_type_index_[t][row].Materialize();
    }
  }
  numbering_ = num::Numbering::FromNumbers(std::move(numbers));
  numbering_ready_.store(true, std::memory_order_release);
}

const num::PackedPbnList& StoredDocument::PackedNodesOfType(
    dg::TypeId t) const {
  static const num::PackedPbnList kEmpty;
  if (t >= packed_type_index_.size()) return kEmpty;
  if (packed_ready_ != nullptr &&
      packed_ready_[t].load(std::memory_order_acquire) == 0) {
    DecodeLazyArena(t);
  }
  return packed_type_index_[t];
}

void StoredDocument::DecodeLazyArena(dg::TypeId t) const {
  std::lock_guard<std::mutex> lock(packed_mu_);
  if (packed_ready_[t].load(std::memory_order_relaxed) != 0) return;
  const LazyArena& la = lazy_arenas_[t];
  std::string inflated;
  std::string_view blob = la.blob;
  bool ok = true;
  if (la.deflated) {
    ok = common::Inflate(blob, la.raw_bytes, &inflated).ok();
    blob = inflated;
  }
  if (ok) {
    Result<num::PackedPbnList> list =
        num::DecodeBlocked(blob, type_node_index_[t].size());
    // The snapshot checksum vouched for these bytes at load time, so a
    // failure here is unreachable absent a logic bug; DecodeBlocked's own
    // validation still keeps the failure mode defined (type reads empty).
    if (list.ok()) packed_type_index_[t] = std::move(list).ValueUnsafe();
  }
  packed_ready_[t].store(1, std::memory_order_release);
}

void StoredDocument::EnsureAllPacked() const {
  if (packed_ready_ == nullptr) return;
  for (size_t t = 0; t < packed_type_index_.size(); ++t) {
    PackedNodesOfType(static_cast<dg::TypeId>(t));
  }
}

const std::vector<xml::NodeId>& StoredDocument::NodeIdsOfType(
    dg::TypeId t) const {
  static const std::vector<xml::NodeId> kEmpty;
  if (t >= type_node_index_.size()) return kEmpty;
  return type_node_index_[t];
}

std::pair<size_t, size_t> StoredDocument::TypeRangeWithin(
    dg::TypeId t, const num::Pbn& scope) const {
  // One small encoding of the scope, then pure memcmp binary searches.
  std::string encoded;
  num::EncodeOrdered(scope, &encoded);
  return TypeRangeWithin(
      t, num::PackedPbnRef(encoded.data(),
                           static_cast<uint32_t>(encoded.size()),
                           static_cast<uint32_t>(scope.length())));
}

std::pair<size_t, size_t> StoredDocument::TypeRangeWithin(
    dg::TypeId t, const num::PackedPbnRef& scope) const {
  return PackedNodesOfType(t).PrefixRange(scope);
}

size_t StoredDocument::resident_mapped_bytes() const {
  return mapping_ != nullptr ? mapping_->ResidentBytes() : 0;
}

void StoredDocument::EvictMappedPages() const {
  if (mapping_ != nullptr) mapping_->EvictPages();
}

size_t StoredDocument::MemoryUsage() const {
  size_t total = text_.capacity() +
                 ranges_.capacity() * sizeof(std::pair<uint64_t, uint64_t>);
  // Only numbers already hydrated count: a snapshot-loaded document keeps
  // them in the packed arenas, and reading numbering() here would hydrate.
  if (numbering_ready_.load(std::memory_order_acquire)) {
    total += numbering_.NumbersMemoryUsage();
  }
  total += guide_.MemoryUsage();
  total += node_types_.capacity() * sizeof(dg::TypeId);
  total += node_rows_.capacity() * sizeof(uint32_t);
  total += value_index_.MemoryUsage();
  for (const auto& list : packed_type_index_) total += list.MemoryUsage();
  for (const auto& v : type_node_index_) {
    total += v.capacity() * sizeof(xml::NodeId);
  }
  return total;
}

}  // namespace vpbn::storage
