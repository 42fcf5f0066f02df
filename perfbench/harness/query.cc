/// \file query.cc
/// \brief The `query` phase: the embedded QueryEngine, no server and no
/// result cache, one query at a time, over a streamed auctions document and
/// the view `auction { itemref bidder { price } }`. Seven fixed query
/// classes run round-robin; a pass runs each once.
///
/// End-to-end passes run on one engine thread: the machine's parallel
/// capacity swings between one and four cores from minute to minute, which
/// would swamp any other difference. Traced runs add passes on the run's
/// thread budget and report the speedup as a per-layer metric.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "query/eval_nav.h"
#include "stats.h"
#include "storage/stored_document.h"
#include "workload/auctions.h"

namespace perfbench {

namespace {

using vpbn::query::QueryEngine;

constexpr char kViewSpec[] = "auction { itemref bidder { price } }";

/// Scale factors of workload::ScaledAuctions: 2.5 is about one million
/// nodes, 0.25 about one hundred thousand.
constexpr double kPrimaryScale = 2.5;
constexpr double kShortScale = 0.25;
constexpr int kSetups = 5;

struct QueryClass {
  const char* name;
  std::string path;
  bool on_view;
  bool value_predicate;
  /// ExecStats steps reported as query.step_ms.<c>.<i>: a view plan
  /// records one per location step; the stored classes run bulk plans,
  /// which record none.
  size_t steps;
};

/// Per-class samples from traced passes.
struct ClassTrace {
  std::vector<double> prepare_ms, execute_ms, render_ms;
  std::vector<std::vector<double>> step_ms;  ///< by step, QueryClass::steps
  std::vector<double> selectivity, qerror;
  std::vector<double> join_pairs, comparisons, bytes_compared, block_skips;
  std::vector<double> postings, zone_map_skips, scan_fallbacks;
  std::vector<double> vjoin_pairs;
  double cold_decoded_batches = 0;  ///< first query on a freshly opened view

  void Add(const Answer& a, double nocache_prepare_ms, const QueryClass& c) {
    const auto& s = a.stats;
    prepare_ms.push_back(nocache_prepare_ms);
    execute_ms.push_back(a.execute_ms);
    render_ms.push_back(a.render_ms);
    step_ms.resize(c.steps);
    for (size_t i = 0; i < c.steps; ++i) {
      step_ms[i].push_back(i < s.steps.size() ? s.steps[i].wall_ms : 0);
    }
    selectivity.push_back(
        s.nodes_scanned == 0
            ? 0
            : static_cast<double>(s.result_nodes) / s.nodes_scanned);
    if (!c.on_view) qerror.push_back(QError(s.est_rows, s.result_nodes));
    join_pairs.push_back(s.join_pairs);
    comparisons.push_back(s.pbn_comparisons);
    bytes_compared.push_back(s.bytes_compared);
    block_skips.push_back(s.block_skips);
    postings.push_back(s.value_index_postings);
    zone_map_skips.push_back(s.zone_map_skips);
    scan_fallbacks.push_back(s.value_scan_fallbacks);
    vjoin_pairs.push_back(s.vjoin_pairs);
  }
};

/// What a pass of a traced run measures, in rotation.
enum class PassKind { kPlain, kTraced, kParallel };

class QueryPhase : public Phase {
 public:
  QueryPhase(Run* run, bool primary) : run_(run), primary_(primary) {}

  bool Prepare() override;
  void Measure(double seconds) override;
  void Finish() override;

 private:
  const QueryEngine& EngineFor(const QueryClass& c) const {
    return c.on_view ? *view_engine_ : *stored_engine_;
  }

  Run* const run_;
  const bool primary_;
  vpbn::xml::Document doc_;
  std::vector<QueryClass> classes_;
  std::shared_ptr<const vpbn::storage::StoredDocument> stored_;
  std::shared_ptr<const vpbn::virt::VirtualDocument> vdoc_;
  std::unique_ptr<QueryEngine> stored_engine_, view_engine_;
  // Plan cache off: parse + plan timings.
  std::unique_ptr<QueryEngine> stored_nocache_, view_nocache_;
  std::string counts_ = "{";

  int passes_ = 0;
  uint64_t request_ = 0;
  std::vector<RoundSeries> class_ms_;  // plain passes
  RoundSeries pass_ms_;                // plain passes
  std::vector<ClassTrace> traces_;
  std::vector<double> traced_pass_ms_, parallel_pass_ms_;
};

bool QueryPhase::Prepare() {
  Report& report = run_->report;
  doc_ = vpbn::workload::GenerateAuctionsChunked(
      vpbn::workload::ScaledAuctions(primary_ ? kPrimaryScale : kShortScale,
                                     run_->StreamSeed("query.corpus")),
      100000);

  // The value-eq literal: a seed-chosen person's (interned) name.
  auto names = vpbn::query::EvalNav(doc_, "//person/name");
  if (!names.ok() || names->empty()) {
    report.Fail("query: corpus has no person names");
    return false;
  }
  SplitMix64 rng(run_->StreamSeed("query.literal"));
  const std::string person =
      doc_.StringValue((*names)[rng.Uniform(names->size())]);
  classes_ = {
      {"struct", "//auction[bidder/personref]/itemref", false, false, 0},
      {"value-eq", "//person[name = \"" + person + "\"]/city", false, true, 0},
      {"value-range", "//auction[bidder/price > 120]/itemref", false, true, 0},
      {"wide", "//item/name", false, false, 0},
      {"virt-child", "//bidder/price", true, false, 2},
      {"virt-desc", "//auction//price", true, false, 2},
      {"virt-value", "//bidder[price > 990]", true, true, 1},
  };
  class_ms_.resize(classes_.size());
  traces_.resize(classes_.size());

  // --- Set-up: stored build + view open + engines, several times --------
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    stored_engine_.reset();
    view_engine_.reset();
    vdoc_.reset();
    stored_.reset();
    const int64_t t0 = NowNs();
    stored_ = std::make_shared<const vpbn::storage::StoredDocument>(
        vpbn::storage::StoredDocument::Build(doc_));
    auto opened = vpbn::virt::VirtualDocument::OpenShared(stored_, kViewSpec);
    if (!opened.ok()) {
      report.Fail("query: view open: " + opened.status().ToString());
      return false;
    }
    vdoc_ = std::move(*opened);
    stored_engine_ = std::make_unique<QueryEngine>(stored_);
    view_engine_ = std::make_unique<QueryEngine>(vdoc_);
    setup_s.push_back(MsSince(t0) / 1000);
  }
  if (primary_) report.Set("setup_s", Median(setup_s), "s");
  stored_nocache_ = std::make_unique<QueryEngine>(stored_);
  view_nocache_ = std::make_unique<QueryEngine>(vdoc_);
  stored_nocache_->SetPlanCacheCapacity(0);
  view_nocache_->SetPlanCacheCapacity(0);

  // --- Correctness gate: every class, on one thread and on the thread
  // budget, against the navigational oracle -------------------------------
  auto materialized = vpbn::virt::Materialize(*vdoc_);
  if (!materialized.ok()) {
    report.Fail("query: materialize: " + materialized.status().ToString());
    return false;
  }
  for (const QueryClass& c : classes_) {
    report.Attempt();
    Answer got = AnswerQuery(run_, EngineFor(c), c.path, 0, 0, {}, true);
    auto want = c.on_view ? NavViewValues(*materialized, c.path)
                          : NavStoredValues(doc_, c.path);
    vpbn::query::ExecOverrides parallel;
    parallel.threads = run_->threads;
    Answer par = AnswerQuery(run_, EngineFor(c), c.path, 0, 0, parallel, true);
    if (!got.ok || !par.ok || !want.ok() || got.values != *want ||
        par.values != *want) {
      report.Fail(std::string("query: class ") + c.name +
                  " differs from the navigational oracle");
    }
    if (counts_.size() > 1) counts_ += ',';
    counts_ += "\"" + std::string(c.name) + "\":" + std::to_string(got.count);
  }
  counts_ += "}";

  // A view decodes the arenas a query needs once and keeps them, so the
  // decode counter is read from each view class's first query on a view of
  // its own.
  if (run_->traced) {
    vpbn::query::ExecOverrides stats;
    stats.collect_stats = true;
    for (size_t i = 0; i < classes_.size(); ++i) {
      if (!classes_[i].on_view) continue;
      auto fresh = vpbn::virt::VirtualDocument::OpenShared(stored_, kViewSpec);
      if (!fresh.ok()) {
        report.Fail("query: view open: " + fresh.status().ToString());
        continue;
      }
      QueryEngine engine(*fresh);
      Answer a = AnswerQuery(run_, engine, classes_[i].path, 0, 0, stats,
                             false);
      traces_[i].cold_decoded_batches =
          static_cast<double>(a.stats.decoded_batches);
    }
  }
  return true;
}

void QueryPhase::Measure(double seconds) {
  // Traced runs rotate traced passes (spans + ExecStats), plain ones (for
  // the tracing overhead) and parallel ones (for the speedup).
  Report& report = run_->report;
  for (RoundSeries& series : class_ms_) series.StartRound();
  pass_ms_.StartRound();
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    const PassKind kind =
        run_->traced ? static_cast<PassKind>(passes_ % 3) : PassKind::kPlain;
    ++passes_;
    const bool traced = kind == PassKind::kTraced;
    vpbn::query::ExecOverrides overrides;
    overrides.collect_stats = traced;
    overrides.threads = kind == PassKind::kParallel ? run_->threads : 1;
    if (kind == PassKind::kParallel) run_->Widen();
    run_->tracer.set_enabled(traced);
    double sum_ms = 0;
    for (size_t i = 0; i < classes_.size(); ++i) {
      const QueryClass& c = classes_[i];
      ++request_;
      double nocache_prepare_ms = 0;
      if (traced) {
        const int64_t t0 = NowNs();
        auto p = (c.on_view ? view_nocache_ : stored_nocache_)->Prepare(c.path);
        nocache_prepare_ms = MsSince(t0);
        if (!p.ok()) report.Fail(std::string("query: prepare ") + c.name);
      }
      ScopedSpan root(&run_->tracer, "bench.query", request_);
      Answer a = AnswerQuery(run_, EngineFor(c), c.path, request_, root.id(),
                             overrides, false);
      root.Stop();
      report.Attempt();
      if (!a.ok) {
        report.Fail(std::string("query: class ") + c.name + " failed");
        continue;
      }
      sum_ms += a.total_ms();
      if (traced) traces_[i].Add(a, nocache_prepare_ms, c);
      if (kind == PassKind::kPlain) class_ms_[i].Add(a.total_ms());
    }
    switch (kind) {
      case PassKind::kPlain:
        pass_ms_.Add(sum_ms);
        break;
      case PassKind::kTraced:
        traced_pass_ms_.push_back(sum_ms);
        break;
      case PassKind::kParallel:
        parallel_pass_ms_.push_back(sum_ms);
        run_->Narrow();
        break;
    }
  } while (NowNs() < deadline);
  run_->tracer.set_enabled(false);
}

void QueryPhase::Finish() {
  Report& report = run_->report;
  std::vector<double> class_medians;
  std::string medians = "{";
  for (size_t i = 0; i < classes_.size(); ++i) {
    const Summary s = Summarize(class_ms_[i].All());
    class_medians.push_back(class_ms_[i].BusyQuartile());
    if (medians.size() > 1) medians += ',';
    medians += "\"" + std::string(classes_[i].name) + "\":{\"n\":" +
               std::to_string(s.n) + ",\"p50_ms\":" + std::to_string(s.p50) +
               ",\"tail_pct\":" + std::to_string(s.tail_pct) +
               ",\"tail_ms\":" + std::to_string(s.tail) + "}";
  }
  medians += "}";
  report.Detail("query",
                "{\"primary\":" + std::string(primary_ ? "true" : "false") +
                    ",\"nodes\":" + std::to_string(doc_.num_nodes()) +
                    ",\"threads\":" + std::to_string(run_->threads) +
                    ",\"passes\":" + std::to_string(passes_) +
                    ",\"pass_ms_by_round\":" +
                    JsonNumberList(pass_ms_.RoundMedians()) +
                    ",\"result_counts\":" + counts_ +
                    ",\"classes\":" + medians + "}");

  if (!run_->traced) {
    report.Set("geomean_ms", Geomean(class_medians), "ms");
    report.Set("pass_ms", pass_ms_.BusyQuartile(), "ms");
    return;
  }

  const double plain = Median(pass_ms_.All());
  const double parallel = Median(parallel_pass_ms_);
  report.Set("trace.overhead_pct",
             plain > 0 ? 100 * (Median(traced_pass_ms_) - plain) / plain : 0,
             "%");
  report.Set("query.parallel_speedup", parallel > 0 ? plain / parallel : 0,
             "ratio");
  for (size_t i = 0; i < classes_.size(); ++i) {
    const QueryClass& c = classes_[i];
    const ClassTrace& t = traces_[i];
    const std::string n = c.name;
    report.Set("query.prepare_ms." + n, Median(t.prepare_ms), "ms");
    report.Set("query.execute_ms." + n, Median(t.execute_ms), "ms");
    report.Set("query.render_ms." + n, Median(t.render_ms), "ms");
    for (size_t s = 0; s < t.step_ms.size(); ++s) {
      report.Set("query.step_ms." + n + "." + std::to_string(s),
                 Median(t.step_ms[s]), "ms");
    }
    report.Set("query.selectivity." + n, Median(t.selectivity), "ratio");
    if (!c.on_view) {
      report.Set("query.est_qerror." + n, Median(t.qerror), "ratio");
    }
    report.Set("pbn.join_pairs." + n, Median(t.join_pairs), "count");
    report.Set("pbn.comparisons." + n, Median(t.comparisons), "count");
    report.Set("pbn.bytes_compared." + n, Median(t.bytes_compared), "bytes");
    report.Set("pbn.block_skips." + n, Median(t.block_skips), "count");
    if (c.value_predicate) {
      report.Set("index.postings." + n, Median(t.postings), "count");
      report.Set("index.zone_map_skips." + n, Median(t.zone_map_skips),
                 "count");
      report.Set("index.scan_fallbacks." + n, Median(t.scan_fallbacks),
                 "count");
    }
    if (c.on_view) {
      report.Set("vpbn.vjoin_pairs." + n, Median(t.vjoin_pairs), "count");
      report.Set("vpbn.decoded_batches." + n, t.cold_decoded_batches,
                 "count");
    }
  }
}

}  // namespace

std::unique_ptr<Phase> MakeQuery(Run* run, bool primary) {
  return std::make_unique<QueryPhase>(run, primary);
}

}  // namespace perfbench
