/// \file result_cache.h
/// \brief The vpbnd result cache: finished answers keyed by
/// (document, view, path, epoch).
///
/// Layered on the engine's prepared-plan cache: the plan cache skips
/// parse+plan, this cache skips execution entirely for repeated requests.
/// The epoch in the key is the invalidation story — a catalog reload bumps
/// the entry's epoch, so every cached answer for the old generation simply
/// stops being reachable (and ages out of the LRU); nothing is scanned or
/// purged on reload, and a cross-epoch hit is impossible by construction.
///
/// Entries are immutable shared_ptrs: a hit hands the caller a reference
/// that stays valid even if the entry is evicted mid-response.

#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace vpbn::server {

class ResultCache {
 public:
  /// One finished answer: the string values plus the response metadata the
  /// server replays on a hit.
  struct Entry {
    std::vector<std::string> values;
    uint64_t result_nodes = 0;
    std::string plan;
    double wall_ms = 0;  ///< execution cost of the original (uncached) run
    /// ExecStats::ToJson of that run when it collected stats, else empty;
    /// a `--stats` hit replays it.
    std::string stats_json;
  };

  /// \p capacity 0 disables caching (every Get misses, Put drops).
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  /// The canonical cache key. No QUERY option changes an answer
  /// (`--stats` changes only what the response reports), so options take
  /// no part and requests differing only in them share an entry.
  static std::string Key(const std::string& doc, const std::string& view,
                         const std::string& path, uint64_t epoch);

  /// nullptr on miss. With \p with_stats, an entry that holds no stats
  /// is a miss too (the caller re-executes and refreshes it). Bumps the
  /// entry to most-recently-used on hit.
  std::shared_ptr<const Entry> Get(const std::string& key,
                                   bool with_stats = false);

  /// Inserts (or refreshes) \p entry under \p key, evicting LRU entries
  /// beyond capacity.
  void Put(const std::string& key, std::shared_ptr<const Entry> entry);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const;
  size_t capacity() const { return capacity_; }
  void Clear();

 private:
  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const Entry>>>;

  const size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;  // most-recent first
  std::unordered_map<std::string, LruList::iterator> index_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace vpbn::server
