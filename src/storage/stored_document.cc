#include "storage/stored_document.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "common/compress.h"
#include "common/parallel.h"
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
      mapped_bytes_(other.mapped_bytes_),
      type_cache_(std::move(other.type_cache_)) {}

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
    type_cache_ = std::move(other.type_cache_);
  }
  return *this;
}

StoredDocument StoredDocument::Build(const xml::Document& doc,
                                     common::ThreadPool* pool) {
  auto start = std::chrono::steady_clock::now();
  StoredDocument out;
  out.doc_ = &doc;
  out.ranges_.assign(doc.num_nodes(), {0, 0});

  // Phase 1 — serialize / number / DataGuide + type-of-node: three
  // independent read-only passes over the document. The numbering and guide
  // passes go to the pool while the serializer runs on the caller thread,
  // fanning its own subtree chunks into the same pool, so every worker
  // stays busy. Each pass writes a disjoint member; none reads another's
  // output.
  if (pool != nullptr && pool->num_threads() > 1 &&
      !common::ThreadPool::InWorker()) {
    std::mutex mu;
    std::condition_variable cv;
    int pending = 2;
    std::exception_ptr error;
    auto done = [&](std::exception_ptr e) {
      // Notify under the lock: the joining thread destroys mu/cv as soon as
      // it observes pending == 0 (same discipline as ParallelFor).
      std::lock_guard<std::mutex> lock(mu);
      if (e && !error) error = e;
      --pending;
      cv.notify_one();
    };
    pool->Submit([&] {
      try {
        out.numbering_ = num::Numbering::Number(doc);
        done(nullptr);
      } catch (...) {
        done(std::current_exception());
      }
    });
    pool->Submit([&] {
      try {
        out.guide_ = dg::DataGuide::Build(doc, &out.node_types_);
        done(nullptr);
      } catch (...) {
        done(std::current_exception());
      }
    });
    xml::SerializeForestWithRanges(doc, pool, &out.text_, &out.ranges_);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
    if (error) std::rethrow_exception(error);
  } else {
    out.numbering_ = num::Numbering::Number(doc);
    out.guide_ = dg::DataGuide::Build(doc, &out.node_types_);
    xml::SerializeForestWithRanges(doc, nullptr, &out.text_, &out.ranges_);
  }

  // Phase 2 — each node's row within its type's instance list
  // (AssignTypeRows, shared with the v2 snapshot loader).
  out.packed_type_index_.assign(out.guide_.num_types(), {});
  out.type_cache_.resize(out.guide_.num_types());
  out.AssignTypeRows();

  // Phase 3 — pack the per-type PBN arenas. The instance lists are already
  // document-ordered, so each arena comes out sorted — what the memcmp
  // binary searches and packed structural joins rely on — and identical to
  // the sequential interleaved build. Tasks split per (type, row segment)
  // rather than per type, so one dominant type (every large real document
  // has one) cannot serialize the phase; segments encode into scratch lists
  // stitched back in row order, byte-identical to the straight append.
  constexpr size_t kPackSegmentRows = 16384;
  struct PackTask {
    size_t type;
    size_t row_lo;
    size_t row_hi;
    size_t slot;  // scratch index; contiguous per type, in row order
  };
  std::vector<PackTask> tasks;
  std::vector<size_t> first_slot(out.guide_.num_types() + 1, 0);
  for (size_t t = 0; t < out.guide_.num_types(); ++t) {
    first_slot[t] = tasks.size();
    const size_t rows = out.type_node_index_[t].size();
    for (size_t lo = 0; lo < rows || (rows == 0 && lo == 0);
         lo += kPackSegmentRows) {
      tasks.push_back({t, lo, std::min(rows, lo + kPackSegmentRows),
                       tasks.size()});
      if (rows == 0) break;
    }
  }
  first_slot[out.guide_.num_types()] = tasks.size();
  std::vector<num::PackedPbnList> scratch(tasks.size());
  common::ParallelFor(pool, tasks.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const PackTask& task = tasks[i];
      const std::vector<xml::NodeId>& ids = out.type_node_index_[task.type];
      num::PackedPbnList& list = scratch[task.slot];
      list.Reserve(task.row_hi - task.row_lo);
      for (size_t row = task.row_lo; row < task.row_hi; ++row) {
        list.Append(out.numbering_.OfNode(ids[row]));
      }
    }
  });
  common::ParallelFor(
      pool, out.guide_.num_types(), 1, [&](size_t lo, size_t hi) {
        for (size_t t = lo; t < hi; ++t) {
          num::PackedPbnList& list = out.packed_type_index_[t];
          if (first_slot[t + 1] - first_slot[t] == 1) {
            list = std::move(scratch[first_slot[t]]);
            continue;
          }
          list.Reserve(out.type_node_index_[t].size());
          for (size_t s = first_slot[t]; s < first_slot[t + 1]; ++s) {
            list.AppendSlice(scratch[s], 0, scratch[s].size());
          }
        }
      });

  // Phase 4 — value-index columns (parallel string-value computation,
  // sequential canonical interning inside).
  out.value_index_ =
      idx::ValueIndex::Build(doc, out.guide_, out.type_node_index_, pool);

  out.ingest_ms_ =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

StoredDocument StoredDocument::Build(xml::Document&& doc,
                                     common::ThreadPool* pool) {
  auto owned = std::make_unique<xml::Document>(std::move(doc));
  StoredDocument out = Build(*owned, pool);
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

Result<std::string_view> StoredDocument::Value(const num::Pbn& pbn) const {
  VPBN_ASSIGN_OR_RETURN(auto range, ValueRange(pbn));
  return std::string_view(text_).substr(range.first,
                                        range.second - range.first);
}

Result<std::pair<uint64_t, uint64_t>> StoredDocument::ValueRange(
    const num::Pbn& pbn) const {
  VPBN_ASSIGN_OR_RETURN(xml::NodeId id, numbering().NodeOf(pbn));
  return ranges_[id];
}

Result<NodeHeader> StoredDocument::Header(const num::Pbn& pbn) const {
  VPBN_ASSIGN_OR_RETURN(xml::NodeId id, numbering().NodeOf(pbn));
  return NodeHeader{pbn, node_types_[id]};
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

const std::vector<num::Pbn>& StoredDocument::NodesOfType(dg::TypeId t) const {
  static const std::vector<num::Pbn> kEmpty;
  if (t >= packed_type_index_.size()) return kEmpty;
  const num::PackedPbnList& packed = PackedNodesOfType(t);
  std::lock_guard<std::mutex> lock(type_cache_mu_);
  std::unique_ptr<std::vector<num::Pbn>>& slot = type_cache_[t];
  if (slot == nullptr) {
    slot = std::make_unique<std::vector<num::Pbn>>(packed.MaterializeAll());
  }
  return *slot;
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

std::vector<num::Pbn> StoredDocument::NodesOfTypeWithin(
    dg::TypeId t, const num::Pbn& scope) const {
  const num::PackedPbnList& all = PackedNodesOfType(t);
  auto [first, last] = TypeRangeWithin(t, scope);
  std::vector<num::Pbn> out;
  out.reserve(last - first);
  for (size_t i = first; i < last; ++i) out.push_back(all.Materialize(i));
  return out;
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
  total += numbering().NumbersMemoryUsage();
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
