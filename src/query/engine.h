/// \file engine.h
/// \brief QueryEngine: one facade over all three query substrates, with the
/// prepare/execute split the substrate free functions cannot express.
///
/// The free-function API (EvalNav / EvalIndexed / EvalBulk / EvalVirtual)
/// re-parses the path and re-picks the strategy on every call. QueryEngine
/// separates the two phases:
///
///   * **Prepare(path_text)** parses once and plans once — over a
///     StoredDocument, bulk joins when the path lies in the bulk fragment
///     (InBulkFragment, query/eval_bulk.h) and the per-node indexed
///     evaluator otherwise; over a Document, navigational; over a
///     VirtualDocument, virtual (vPBN) evaluation.
///   * **Execute(prepared, ExecOverrides)** runs the plan on the calling
///     thread, optionally collecting per-query ExecStats.
///
/// The same PreparedQuery can be executed many times with different
/// options. One engine views exactly one substrate instance and holds no
/// data. Engines share ownership of their substrate
/// (`std::shared_ptr<const ...>`), so a long-running server can drop or
/// reload a document while queries against the old instance are still in
/// flight — the engine keeps it alive.
///
/// \code
///   auto stored = std::make_shared<const storage::StoredDocument>(
///       storage::StoredDocument::Build(std::move(doc)));
///   query::QueryEngine engine(stored);   // or (doc) or (vdoc)
///   VPBN_ASSIGN_OR_RETURN(query::PreparedQuery q,
///                         engine.Prepare("//book[author/name]/title"));
///   VPBN_ASSIGN_OR_RETURN(query::QueryResult r,
///                         engine.Execute(q, {.collect_stats = true}));
///   for (const std::string& v : engine.StringValues(r)) ...
///   std::cout << r.stats().ToString();
/// \endcode
///
/// Execute takes **ExecOverrides** — per-request deltas merged over the
/// engine defaults (SetDefaultOptions / EffectiveOptions). A field left
/// unset falls through to the default; `{}` means "run with the defaults".

#pragma once

#include <atomic>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/result.h"
#include "query/exec_context.h"
#include "query/path_parser.h"
#include "storage/stored_document.h"
#include "vpbn/virtual_document.h"
#include "xml/document.h"

namespace vpbn::query {

/// \brief How a prepared query will be evaluated.
enum class PlanKind : uint8_t {
  kNav,      ///< tree walking on a Document
  kBulk,     ///< set-at-a-time structural joins on a StoredDocument
  kIndexed,  ///< per-node PBN index scans on a StoredDocument
  kVirtual,  ///< vPBN evaluation on a VirtualDocument
};

const char* PlanKindToString(PlanKind plan);

/// \brief A parsed, planned query. Created by QueryEngine::Prepare; execute
/// it any number of times (concurrently, if desired — it is immutable).
/// Copyable: the parsed Path (move-only itself) is held behind a shared
/// pointer, so cached plans hand out cheap handles to one immutable parse.
class PreparedQuery {
 public:
  const Path& path() const { return *path_; }
  /// The plan Execute runs. On a stored document it is bulk exactly when
  /// InBulkFragment(path()) holds, else indexed; elsewhere one plan
  /// applies.
  PlanKind plan() const { return plan_; }
  const std::string& text() const { return text_; }

  /// The planner's estimated result cardinality (stored substrate only;
  /// 0 elsewhere). Stamped into ExecStats::est_rows.
  uint64_t est_rows() const { return est_rows_; }

  /// \name Provenance stamp
  /// Which engine instance, document epoch, and statistics epoch this plan
  /// was prepared against. Execute refuses a plan whose stamp does not
  /// match, so a catalog reload can never silently run a plan prepared
  /// over the old document — or estimated under stale statistics (the
  /// stale plan surfaces as an Internal error instead).
  /// @{
  uint64_t engine_id() const { return engine_id_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t stats_epoch() const { return stats_epoch_; }
  /// @}

 private:
  friend class QueryEngine;
  std::shared_ptr<const Path> path_;
  PlanKind plan_ = PlanKind::kNav;
  std::string text_;
  uint64_t est_rows_ = 0;
  uint64_t engine_id_ = 0;
  uint64_t epoch_ = 0;
  uint64_t stats_epoch_ = 0;
};

/// \brief Fully resolved execution options. What Execute actually runs
/// with: either the engine defaults verbatim, or the defaults with an
/// ExecOverrides delta merged on top (EffectiveOptions). No field changes
/// an answer.
struct ExecOptions {
  /// Collect ExecStats (counters + per-step timings) into the result.
  bool collect_stats = false;

  bool operator==(const ExecOptions&) const = default;
};

/// \brief A per-request delta over the engine's default ExecOptions: each
/// set field replaces the corresponding default, unset fields fall through.
/// Designated initializers read like per-call knobs —
/// `engine.Execute(q, {.collect_stats = true})` — and a server can thread
/// one ExecOverrides from the wire to the engine without knowing (or
/// clobbering) the engine's configured defaults.
struct ExecOverrides {
  /// Ignored: every execution runs on the calling thread. Kept only
  /// because the perfbench harness still assigns it.
  std::optional<int> threads;
  std::optional<bool> collect_stats;
};

/// \brief Result nodes in the substrate's native handle type, plus stats.
class QueryResult {
 public:
  using NodeList = std::variant<std::vector<xml::NodeId>,
                                std::vector<virt::VirtualNode>>;

  size_t size() const;

  /// The full node list as a variant — for substrate-generic code (e.g.
  /// comparing results across runs) that has no business knowing the type.
  const NodeList& nodes() const { return nodes_; }

  /// \name Typed access — call the accessor matching the engine's substrate
  /// (node_ids for Document and StoredDocument, which share NodeIds;
  /// virtual_nodes for VirtualDocument). Calling the wrong one is a
  /// contract violation.
  /// @{
  const std::vector<xml::NodeId>& node_ids() const {
    return std::get<std::vector<xml::NodeId>>(nodes_);
  }
  const std::vector<virt::VirtualNode>& virtual_nodes() const {
    return std::get<std::vector<virt::VirtualNode>>(nodes_);
  }
  /// @}

  /// Populated when ExecOptions::collect_stats was set (wall_ms and plan
  /// are filled in either way).
  const ExecStats& stats() const { return stats_; }

 private:
  friend class QueryEngine;
  NodeList nodes_;
  ExecStats stats_;
};

/// \brief The unified query facade. Construct over any substrate; Prepare
/// then Execute. Concurrent Prepare and Execute calls on one engine are
/// safe: the defaults and the plan cache are guarded, each Execute keeps
/// its state in its own ExecContext, and the substrates guard their own
/// lazy state.
class QueryEngine {
 public:
  /// \name Construction — shared substrate ownership
  /// The engine co-owns its substrate, so the substrate can never dangle
  /// under an in-flight query: a catalog that reloads a document just drops
  /// its reference and builds a new engine, and the old instance lives
  /// until the last Execute over it returns. For a substrate owned by
  /// something you already hold a shared_ptr to (e.g. the Document inside a
  /// shared StoredDocument), pass an aliasing shared_ptr.
  /// @{
  explicit QueryEngine(std::shared_ptr<const xml::Document> doc)
      : doc_(std::move(doc)) {}
  explicit QueryEngine(std::shared_ptr<const storage::StoredDocument> stored)
      : stored_(std::move(stored)) {}
  explicit QueryEngine(std::shared_ptr<const virt::VirtualDocument> vdoc)
      : vdoc_(std::move(vdoc)) {}
  /// @}

  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// \name Engine-level default options
  /// SetDefaultOptions replaces the defaults Execute resolves overrides
  /// against; EffectiveOptions is that merge, exposed so callers (the
  /// server, deciding whether to attach stats) can see exactly what a
  /// request will run with. Thread-safe, but intended to be configured
  /// before the engine is shared.
  /// @{
  void SetDefaultOptions(const ExecOptions& options);
  ExecOptions default_options() const;
  ExecOptions EffectiveOptions(const ExecOverrides& overrides = {}) const;
  /// @}

  /// \name Document epoch
  /// An owner-assigned generation number stamped into every PreparedQuery
  /// (the server's catalog sets it to the entry's reload epoch). Changing
  /// it clears the plan cache and invalidates every outstanding
  /// PreparedQuery — Execute rejects plans whose stamp mismatches.
  /// @{
  void SetEpoch(uint64_t epoch);
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  /// @}

  /// \name Statistics epoch
  /// Generation number of the value-index statistics (histograms + zone
  /// maps) cached plans took their est_rows from. A catalog that rebuilds
  /// or reloads statistics without swapping the document bumps this instead
  /// of the document epoch; like SetEpoch it clears the plan cache and
  /// makes Execute reject outstanding PreparedQuery handles, so a plan's
  /// estimate can never outlive the statistics behind it.
  /// @{
  void SetStatsEpoch(uint64_t stats_epoch);
  uint64_t stats_epoch() const {
    return stats_epoch_.load(std::memory_order_relaxed);
  }
  /// @}

  /// Process-unique identity of this engine instance (the other half of the
  /// PreparedQuery provenance stamp).
  uint64_t engine_id() const { return engine_id_; }

  /// Parses \p path_text and picks the execution plan for this substrate.
  /// Plans are memoized in a capacity-bounded LRU cache keyed by the path
  /// text, so repeated Prepare (and one-shot Execute) calls with the same
  /// text skip the parse and the plan choice entirely.
  Result<PreparedQuery> Prepare(std::string_view path_text) const;

  /// Resizes the prepared-plan cache (evicting LRU entries down to \p
  /// capacity); 0 disables caching. Default kDefaultPlanCacheCapacity.
  void SetPlanCacheCapacity(size_t capacity);

  /// \name Engine-lifetime plan-cache counters (also stamped into the
  /// ExecStats of every Execute call).
  /// @{
  uint64_t plan_cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t plan_cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }
  size_t plan_cache_size() const;
  /// @}

  static constexpr size_t kDefaultPlanCacheCapacity = 128;

  /// Runs \p query with the engine defaults plus \p overrides merged on
  /// top, on the calling thread. The result nodes are in document order.
  /// Fails with Internal if \p query was prepared by a different engine or
  /// under a different epoch.
  Result<QueryResult> Execute(const PreparedQuery& query,
                              const ExecOverrides& overrides = {}) const;

  /// Prepare + Execute in one call (for one-shot queries).
  Result<QueryResult> Execute(std::string_view path_text,
                              const ExecOverrides& overrides = {}) const;

  /// String values of the result nodes, substrate-appropriate: XML values
  /// for stored nodes (via the value index), assembled virtual values for
  /// virtual nodes, text content for navigational nodes.
  std::vector<std::string> StringValues(const QueryResult& result) const;

  /// StringValues without the per-result copy: stored-substrate values are
  /// views straight into the stored XML string, and virtual values of
  /// intact subtrees are views into the same string; only values that must
  /// be assembled (non-intact virtual subtrees, navigational text) are
  /// materialized, into \p owned. Every returned view is valid as long as
  /// both the substrate and \p owned live (a deque never relocates its
  /// elements). Views are byte-identical to StringValues.
  std::vector<std::string_view> StringValueViews(
      const QueryResult& result, std::deque<std::string>* owned) const;

 private:
  /// Execute with fully resolved options (the merge already applied).
  Result<QueryResult> ExecuteResolved(const PreparedQuery& query,
                                      const ExecOptions& options) const;

  std::shared_ptr<const xml::Document> doc_;
  std::shared_ptr<const storage::StoredDocument> stored_;
  std::shared_ptr<const virt::VirtualDocument> vdoc_;

  static uint64_t NextEngineId();

  const uint64_t engine_id_ = NextEngineId();
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> stats_epoch_{0};

  mutable std::mutex defaults_mu_;
  ExecOptions defaults_;

  // Prepared-plan LRU: most-recent at the front of lru_, with index_
  // pointing into it by path text. Guarded by cache_mu_ (Prepare may be
  // called concurrently); the hit/miss counters are atomic so Execute can
  // stamp them without the lock.
  mutable std::mutex cache_mu_;
  mutable std::list<std::pair<std::string, PreparedQuery>> lru_;
  mutable std::unordered_map<
      std::string, std::list<std::pair<std::string, PreparedQuery>>::iterator>
      cache_index_;
  mutable size_t cache_capacity_ = kDefaultPlanCacheCapacity;
  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> cache_misses_{0};
};

}  // namespace vpbn::query
