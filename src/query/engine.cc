#include "query/engine.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "common/str_util.h"
#include "query/cardinality.h"
#include "query/eval_bulk.h"
#include "query/eval_indexed.h"
#include "query/eval_nav.h"
#include "query/eval_virtual.h"
#include "vpbn/virtual_value.h"

namespace vpbn::query {

const char* PlanKindToString(PlanKind plan) {
  switch (plan) {
    case PlanKind::kNav:
      return "nav";
    case PlanKind::kBulk:
      return "bulk";
    case PlanKind::kIndexed:
      return "indexed";
    case PlanKind::kVirtual:
      return "virtual";
  }
  return "?";
}

namespace {

/// The integer fields of ExecStats in serialization order. ToString and
/// ToJson both loop over this one table.
struct Counter {
  const char* name;
  uint64_t ExecStats::*field;
};
constexpr Counter kCounters[] = {
    {"snapshot_bytes", &ExecStats::snapshot_bytes},
    {"mapped_bytes", &ExecStats::mapped_bytes},
    {"result_nodes", &ExecStats::result_nodes},
    {"nodes_scanned", &ExecStats::nodes_scanned},
    {"join_pairs", &ExecStats::join_pairs},
    {"pbn_comparisons", &ExecStats::pbn_comparisons},
    {"bytes_compared", &ExecStats::bytes_compared},
    {"vjoin_pairs", &ExecStats::vjoin_pairs},
    {"decoded_batches", &ExecStats::decoded_batches},
    {"block_skips", &ExecStats::block_skips},
    {"value_index_lookups", &ExecStats::value_index_lookups},
    {"value_index_postings", &ExecStats::value_index_postings},
    {"value_scan_fallbacks", &ExecStats::value_scan_fallbacks},
    {"zone_map_skips", &ExecStats::zone_map_skips},
    {"est_rows", &ExecStats::est_rows},
    {"plan_cache_hits", &ExecStats::plan_cache_hits},
    {"plan_cache_misses", &ExecStats::plan_cache_misses},
    {"result_cache_hits", &ExecStats::result_cache_hits},
    {"result_cache_misses", &ExecStats::result_cache_misses},
};

}  // namespace

std::string ExecStats::ToString() const {
  std::string out = "plan=" + plan + " wall_ms=" + std::to_string(wall_ms) +
                    " ingest_ms=" + std::to_string(ingest_ms) +
                    " snapshot_load=" + (snapshot_load ? "1" : "0");
  for (const Counter& c : kCounters) {
    out += ' ' + std::string(c.name) + '=' + std::to_string(this->*c.field);
  }
  out += '\n';
  for (const StepStats& s : steps) {
    out += "  step " + s.label + ": nodes_out=" + std::to_string(s.nodes_out) +
           " wall_ms=" + std::to_string(s.wall_ms) + "\n";
  }
  return out;
}

std::string ExecStats::ToJson() const {
  char buf[256];
  std::string out = "{\"plan\":\"" + JsonEscape(plan) + "\",";
  std::snprintf(buf, sizeof(buf), "\"wall_ms\":%.6f,", wall_ms);
  out += buf;
  std::snprintf(buf, sizeof(buf), "\"ingest_ms\":%.6f,", ingest_ms);
  out += buf;
  out += snapshot_load ? "\"snapshot_load\":true," : "\"snapshot_load\":false,";
  for (const Counter& c : kCounters) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64 ",", c.name,
                  this->*c.field);
    out += buf;
  }
  out += "\"steps\":[";
  for (size_t i = 0; i < steps.size(); ++i) {
    const StepStats& s = steps[i];
    if (i != 0) out += ',';
    out += "{\"label\":\"" + JsonEscape(s.label) + "\",";
    std::snprintf(buf, sizeof(buf),
                  "\"nodes_out\":%" PRIu64 ",\"wall_ms\":%.6f}", s.nodes_out,
                  s.wall_ms);
    out += buf;
  }
  out += "]}";
  return out;
}

size_t QueryResult::size() const {
  return std::visit([](const auto& nodes) { return nodes.size(); }, nodes_);
}

QueryEngine::~QueryEngine() = default;

uint64_t QueryEngine::NextEngineId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

void QueryEngine::SetDefaultOptions(const ExecOptions& options) {
  std::lock_guard<std::mutex> lock(defaults_mu_);
  defaults_ = options;
}

ExecOptions QueryEngine::default_options() const {
  std::lock_guard<std::mutex> lock(defaults_mu_);
  return defaults_;
}

ExecOptions QueryEngine::EffectiveOptions(
    const ExecOverrides& overrides) const {
  ExecOptions effective = default_options();
  if (overrides.collect_stats) {
    effective.collect_stats = *overrides.collect_stats;
  }
  return effective;
}

void QueryEngine::SetEpoch(uint64_t epoch) {
  if (epoch_.exchange(epoch, std::memory_order_relaxed) == epoch) return;
  // Every cached plan carries the old stamp; drop them so Prepare re-stamps
  // instead of serving a plan Execute would reject.
  std::lock_guard<std::mutex> lock(cache_mu_);
  lru_.clear();
  cache_index_.clear();
}

void QueryEngine::SetStatsEpoch(uint64_t stats_epoch) {
  if (stats_epoch_.exchange(stats_epoch, std::memory_order_relaxed) ==
      stats_epoch) {
    return;
  }
  // Cached plans carry estimates from the previous statistics; drop them so
  // Prepare re-estimates against the rebuilt histograms and zone maps.
  std::lock_guard<std::mutex> lock(cache_mu_);
  lru_.clear();
  cache_index_.clear();
}

Result<PreparedQuery> QueryEngine::Prepare(std::string_view path_text) const {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_index_.find(std::string(path_text));
    if (it != cache_index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // bump to most-recent
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second->second;
    }
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);

  VPBN_ASSIGN_OR_RETURN(Path path, ParsePath(path_text));
  PreparedQuery q;
  q.text_ = std::string(path_text);
  q.path_ = std::make_shared<const Path>(std::move(path));
  q.engine_id_ = engine_id_;
  q.epoch_ = epoch_.load(std::memory_order_relaxed);
  q.stats_epoch_ = stats_epoch_.load(std::memory_order_relaxed);
  if (doc_ != nullptr) {
    q.plan_ = PlanKind::kNav;
  } else if (stored_ != nullptr) {
    // Existence chains evaluate in linear time by semi-join reduction, so
    // the bulk fragment always runs set-at-a-time; the per-node indexed
    // evaluator serves only the shapes bulk cannot express.
    q.plan_ = InBulkFragment(q.path()) ? PlanKind::kBulk : PlanKind::kIndexed;
    double est = CardinalityEstimator(*stored_).EstimateResultRows(q.path());
    q.est_rows_ = est > 0 ? static_cast<uint64_t>(est + 0.5) : 0;
  } else {
    q.plan_ = PlanKind::kVirtual;
  }

  std::lock_guard<std::mutex> lock(cache_mu_);
  if (cache_capacity_ > 0 && cache_index_.find(q.text_) == cache_index_.end()) {
    lru_.emplace_front(q.text_, q);
    cache_index_.emplace(q.text_, lru_.begin());
    while (lru_.size() > cache_capacity_) {
      cache_index_.erase(lru_.back().first);
      lru_.pop_back();
    }
  }
  return q;
}

void QueryEngine::SetPlanCacheCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_capacity_ = capacity;
  while (lru_.size() > cache_capacity_) {
    cache_index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

size_t QueryEngine::plan_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return lru_.size();
}

Result<QueryResult> QueryEngine::Execute(const PreparedQuery& query,
                                         const ExecOverrides& overrides) const {
  return ExecuteResolved(query, EffectiveOptions(overrides));
}

Result<QueryResult> QueryEngine::ExecuteResolved(
    const PreparedQuery& query, const ExecOptions& options) const {
  const uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  const uint64_t stats_epoch = stats_epoch_.load(std::memory_order_relaxed);
  if (query.engine_id_ != engine_id_ || query.epoch_ != epoch ||
      query.stats_epoch_ != stats_epoch) {
    return Status::Internal(
        "stale PreparedQuery: prepared against engine#" +
        std::to_string(query.engine_id_) + " epoch " +
        std::to_string(query.epoch_) + " stats_epoch " +
        std::to_string(query.stats_epoch_) + ", executing on engine#" +
        std::to_string(engine_id_) + " epoch " + std::to_string(epoch) +
        " stats_epoch " + std::to_string(stats_epoch));
  }
  ExecContext ctx(options.collect_stats);
  auto t0 = std::chrono::steady_clock::now();

  QueryResult result;
  switch (query.plan()) {
    case PlanKind::kNav: {
      VPBN_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                            EvalNav(*doc_, query.path(), &ctx));
      result.nodes_ = std::move(nodes);
      break;
    }
    case PlanKind::kBulk: {
      VPBN_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                            EvalBulk(*stored_, query.path(), &ctx));
      result.nodes_ = std::move(nodes);
      break;
    }
    case PlanKind::kIndexed: {
      VPBN_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                            EvalIndexed(*stored_, query.path(), &ctx));
      result.nodes_ = std::move(nodes);
      break;
    }
    case PlanKind::kVirtual: {
      VPBN_ASSIGN_OR_RETURN(std::vector<virt::VirtualNode> nodes,
                            EvalVirtual(*vdoc_, query.path(), &ctx));
      result.nodes_ = std::move(nodes);
      break;
    }
  }

  ExecStats& stats = result.stats_;
  if (options.collect_stats) stats = ctx.TakeStats();
  stats.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  stats.plan = PlanKindToString(query.plan());
  stats.result_nodes = result.size();
  if (stored_ != nullptr) {
    stats.est_rows = query.est_rows();
    stats.ingest_ms = stored_->ingest_ms();
    stats.snapshot_load = stored_->from_snapshot();
    stats.snapshot_bytes = stored_->snapshot_bytes();
    stats.mapped_bytes = stored_->mapped_bytes();
  }
  stats.plan_cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.plan_cache_misses = cache_misses_.load(std::memory_order_relaxed);
  return result;
}

Result<QueryResult> QueryEngine::Execute(std::string_view path_text,
                                         const ExecOverrides& overrides) const {
  VPBN_ASSIGN_OR_RETURN(PreparedQuery query, Prepare(path_text));
  return Execute(query, overrides);
}

std::vector<std::string> QueryEngine::StringValues(
    const QueryResult& result) const {
  std::deque<std::string> owned;
  std::vector<std::string_view> views = StringValueViews(result, &owned);
  std::vector<std::string> out;
  out.reserve(views.size());
  for (std::string_view v : views) out.emplace_back(v);
  return out;
}

std::vector<std::string_view> QueryEngine::StringValueViews(
    const QueryResult& result, std::deque<std::string>* owned) const {
  std::vector<std::string_view> out;
  out.reserve(result.size());
  if (doc_ != nullptr) {
    for (xml::NodeId id : result.node_ids()) {
      out.push_back(owned->emplace_back(doc_->StringValue(id)));
    }
  } else if (stored_ != nullptr) {
    for (xml::NodeId id : result.node_ids()) out.push_back(stored_->Value(id));
  } else {
    virt::VirtualValueComputer values(*vdoc_);
    for (const virt::VirtualNode& n : result.virtual_nodes()) {
      std::string_view view;
      if (values.ValueView(n, &view)) {
        out.push_back(view);
      } else {
        out.push_back(owned->emplace_back(values.Value(n)));
      }
    }
  }
  return out;
}

}  // namespace vpbn::query
