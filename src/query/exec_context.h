/// \file exec_context.h
/// \brief Per-execution state threaded through the evaluators: the counters
/// behind ExecStats and the per-query caches.
///
/// An ExecContext is owned by one QueryEngine::Execute call (query/engine.h)
/// and shared by every evaluator frame of that execution, all on the
/// calling thread, so its counters are plain fields. A null ExecContext (the
/// default everywhere) means no counters and no per-query caches; the
/// evaluators pick the same strategies either way.

#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace vpbn::query {

/// \brief Accounting for one top-level path step (ExecStats::steps).
struct StepStats {
  std::string label;        ///< "child::book[2 predicates]" and the like
  uint64_t nodes_out = 0;   ///< context size after the step
  double wall_ms = 0;       ///< wall time of the step, predicates included
};

/// \brief What one Execute call did. Returned inside QueryResult.
struct ExecStats {
  uint64_t nodes_scanned = 0;      ///< nodes produced by axis/index scans
  uint64_t join_pairs = 0;         ///< structural-join pairs emitted
  uint64_t pbn_comparisons = 0;    ///< packed axis/order decisions made
  uint64_t bytes_compared = 0;     ///< encoded arena bytes those touched
  uint64_t vjoin_pairs = 0;        ///< virtual merge-join pairs emitted
  uint64_t decoded_batches = 0;    ///< arenas batch-decoded into columns
  uint64_t block_skips = 0;        ///< whole key blocks skipped by joins
  uint64_t value_index_lookups = 0;   ///< dictionary / numeric-slice probes
  uint64_t value_index_postings = 0;  ///< postings rows consumed by pushdown
  uint64_t value_scan_fallbacks = 0;  ///< value predicates scanned per node
  uint64_t zone_map_skips = 0;     ///< value/postings blocks skipped on bounds
  uint64_t est_rows = 0;           ///< planner's estimated result cardinality
  uint64_t plan_cache_hits = 0;    ///< engine-lifetime prepared-plan hits
  uint64_t plan_cache_misses = 0;  ///< engine-lifetime prepared-plan misses
  uint64_t result_cache_hits = 0;    ///< server result-cache hits (vpbnd)
  uint64_t result_cache_misses = 0;  ///< server result-cache misses (vpbnd)
  uint64_t result_nodes = 0;       ///< size of the result node list
  double wall_ms = 0;              ///< end-to-end wall time
  double ingest_ms = 0;            ///< build (or snapshot-load) cost of the
                                   ///< stored substrate, when one is attached
  bool snapshot_load = false;      ///< stored substrate came from a snapshot
  uint64_t snapshot_bytes = 0;     ///< on-disk size of that snapshot
  uint64_t mapped_bytes = 0;       ///< bytes of it memory-mapped, not copied
  std::string plan;                ///< "nav" | "indexed" | "bulk" | "virtual"
  std::vector<StepStats> steps;    ///< per-step timings (top-level path only)

  std::string ToString() const;

  /// The one JSON serialization of these counters, shared by `vpbnq --json`,
  /// the vpbnd STATS verb and the E14 driver. One compact object on a single
  /// line (the vpbnd protocol is newline-delimited), every field above plus
  /// the steps array.
  std::string ToJson() const;
};

/// \brief Mutable execution state. Pointer-identity shared, never copied.
class ExecContext {
 public:
  ExecContext() = default;
  explicit ExecContext(bool collect_stats) : collect_stats_(collect_stats) {}

  bool collect_stats() const { return collect_stats_; }

  /// Test pin (query/eval_virtual.h): make the child / parent / ancestor
  /// axes take the vtype merge join on every context, bypassing the cost
  /// model's merge-vs-walk choice, so tiny documents exercise the merge.
  /// Results are identical either way.
  bool force_vjoin_merge() const { return force_vjoin_merge_; }
  void set_force_vjoin_merge(bool on) { force_vjoin_merge_ = on; }

  /// A memo key from a one-byte kind tag, an address (a predicate, a path,
  /// a dictionary) and a type id: 13 raw bytes, short enough to stay in
  /// the string's inline buffer, so building one allocates nothing.
  static std::string MemoKey(char tag, const void* p, uint32_t id) {
    char raw[1 + sizeof(p) + sizeof(id)];
    raw[0] = tag;
    std::memcpy(raw + 1, &p, sizeof(p));
    std::memcpy(raw + 1 + sizeof(p), &id, sizeof(id));
    return std::string(raw, sizeof(raw));
  }

  /// Per-query memo keyed by an adapter-chosen string: node-test ->
  /// matching-vtype lists (so repeated steps and every context group of a
  /// batch step do not rescan the whole type forest), value-pushdown
  /// (predicate, type) -> matching-row lists, term bitmaps, view witness
  /// sides. \p build runs once per key and execution, so work counted
  /// inside a build is counted once. A build may itself call Cached for
  /// other keys: the value is built first and inserted after. Entries are
  /// shared_ptr, so a caller's handle outlives later inserts. One key must
  /// always be asked for with one T.
  template <typename T, typename Build>
  std::shared_ptr<const T> Cached(const std::string& key, Build&& build) {
    if (auto it = cache_.find(key); it != cache_.end()) {
      return std::static_pointer_cast<const T>(it->second);
    }
    auto value = std::make_shared<const T>(build());
    cache_.emplace(key, value);
    return value;
  }

  /// The counters and step records of this execution. Evaluators add to
  /// them; the engine moves them out (TakeStats) and stamps the rest.
  ExecStats& stats() { return stats_; }
  ExecStats TakeStats() { return std::move(stats_); }

 private:
  bool collect_stats_ = false;
  bool force_vjoin_merge_ = false;
  ExecStats stats_;
  std::unordered_map<std::string, std::shared_ptr<const void>> cache_;
};

}  // namespace vpbn::query
