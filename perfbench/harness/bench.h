/// \file bench.h
/// \brief Shared state of one benchmark run and the three phases it runs.
///
/// A run executes all three phases — serve, query, ingest — so that every
/// metric named in BENCHMARK.json is measured on every workload. The
/// workload picks the *primary* phase: it gets the full input size and half
/// of the `--seconds` budget, and its set-up time is `setup_s`. The other
/// two run in a short form (smaller inputs, a quarter each). Phases never
/// overlap: the run measures them one after another in several rounds, so
/// a burst of load on the machine lands on a few samples of each phase
/// rather than on all samples of one.

#pragma once

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/engine.h"
#include "trace.h"
#include "vpbn/materializer.h"
#include "vpbn/virtual_document.h"
#include "xml/document.h"

namespace perfbench {

/// Metrics by name, failures against attempts, and free-form details.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);

  /// Adds a `"key": <json>` entry to the details record.
  void Detail(const std::string& key, std::string json);

  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  /// Counts one failed operation and logs the first few to stderr.
  void Fail(const std::string& what);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

  std::string MetricsJson() const;
  std::string DetailsJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

struct Run {
  uint64_t seed = 1;
  int threads = 1;      ///< min(visible CPUs, 4): clients and query budget
  bool traced = false;  ///< per-layer run (spans + ExecStats collection)
  double seconds = 10;  ///< measuring time of all phases together
  std::string work_dir; ///< scratch directory for snapshot files
  Tracer tracer;
  Report report;

  /// Seed for one named input stream, so streams stay independent.
  uint64_t StreamSeed(std::string_view stream) const;

  /// Confines every thread of the process to one CPU: the one the first
  /// call ran on. End-to-end loops run confined (see main.cc).
  void Narrow();
  /// Gives every thread back the CPUs the process had before the first
  /// Narrow, for the traced run's concurrent slices.
  void Widen();

 private:
  cpu_set_t cpus_{};
  int home_cpu_ = -1;
};

/// One workload's system under test and its measuring loop.
class Phase {
 public:
  virtual ~Phase() = default;
  /// Generates the inputs, sets the system up (timed, several times) and
  /// runs the correctness gate. False when nothing can be measured.
  virtual bool Prepare() = 0;
  /// Measures for about \p seconds, and at least one unit of work.
  virtual void Measure(double seconds) = 0;
  /// Adds the phase's metrics to the run's report.
  virtual void Finish() = 0;
};

/// \name Phases. \p primary selects the full input size and `setup_s`.
/// @{
std::unique_ptr<Phase> MakeServe(Run* run, bool primary);
std::unique_ptr<Phase> MakeQuery(Run* run, bool primary);
std::unique_ptr<Phase> MakeIngest(Run* run, bool primary);
/// @}

/// One answered query: Prepare, Execute with \p overrides, and
/// StringValueViews, each timed in its own span under \p parent.
struct Answer {
  bool ok = false;
  double prepare_ms = 0;
  double execute_ms = 0;
  double render_ms = 0;
  size_t count = 0;
  vpbn::query::ExecStats stats;     ///< counters only with collect_stats
  std::vector<std::string> values;  ///< only when keep_values

  double total_ms() const { return prepare_ms + execute_ms + render_ms; }
};
Answer AnswerQuery(Run* run, const vpbn::query::QueryEngine& engine,
                   const std::string& path, uint64_t request,
                   uint64_t parent,
                   const vpbn::query::ExecOverrides& overrides,
                   bool keep_values);

/// \name Correctness oracle: the navigational evaluator over the source
/// document. Answers are compared as the value strings the engine renders.
/// @{

/// Values of EvalNav(\p doc, \p path) as the stored substrate renders them
/// (each node's serialized XML).
vpbn::Result<std::vector<std::string>> NavStoredValues(
    const vpbn::xml::Document& doc, std::string_view path);

/// Values of \p path on a view, evaluated navigationally over the view's
/// materialized instance \p m: results are mapped back to virtual nodes
/// through provenance, deduplicated in first-occurrence order, and rendered
/// as the virtual substrate renders them.
vpbn::Result<std::vector<std::string>> NavViewValues(
    const vpbn::virt::Materialized& m, std::string_view path);
/// @}

/// Milliseconds from a steady-clock nanosecond stamp to now.
double MsSince(int64_t start_ns);

/// `{"a":1.5,...}` from a name -> number map.
std::string JsonNumberMap(const std::map<std::string, double>& values);

/// `[1.5,...]`.
std::string JsonNumberList(const std::vector<double>& values);

}  // namespace perfbench
