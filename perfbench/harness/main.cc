/// \file main.cc
/// \brief The benchmark driver binary.
///
///   vpbn_perfbench --workload serve|query|ingest --seed N --seconds S
///                  --trace 0|1 --workdir DIR [--trace-out FILE]
///
/// Prints a details record (seed, hardware calibration, per-phase facts)
/// and then, as its last line, the result object
/// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
/// `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
/// are the per-layer ones from a traced run.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "pbn/packed.h"
#include "stats.h"

namespace {

using namespace perfbench;

int VisibleCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Iterations of a dependent multiply chain per thread in \p ms.
uint64_t SpinThroughput(int threads, int ms) {
  std::atomic<bool> stop{false};
  std::vector<uint64_t> iters(threads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint64_t x = static_cast<uint64_t>(t) + 1, n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 1024; ++i) x = x * 6364136223846793005ULL + 1;
        ++n;
      }
      iters[t] = n + (x == 0 ? 1 : 0);  // keep x live
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  stop = true;
  for (auto& t : pool) t.join();
  uint64_t total = 0;
  for (uint64_t n : iters) total += n;
  return total;
}

/// ISA of the batched PBN kernels, visible CPUs, and how much more a
/// spin loop gets done on the run's thread budget than on one thread.
std::string Calibration(int cpus, int threads) {
  const double one = static_cast<double>(SpinThroughput(1, 200));
  const double many = static_cast<double>(SpinThroughput(threads, 200));
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"batch_kernel_isa\":\"%s\",\"nproc\":%d,\"threads\":%d,"
                "\"spin_ratio\":%.3f}",
                vpbn::num::BatchKernelIsa(), cpus, threads,
                one > 0 ? many / one : 0);
  return buf;
}

/// Rounds of a run. The more round medians, the steadier their quartile
/// (stats.h); units of work longer than a round's slice are carried by the
/// credit in main().
constexpr int kRounds = 30;
/// Shares of `--seconds` the primary phase and each other phase measure.
constexpr double kPrimaryShare = 0.5;
constexpr double kShortShare = 0.25;

int Usage() {
  std::fprintf(stderr,
               "usage: vpbn_perfbench --workload serve|query|ingest --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir, trace_out;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if ((workload != "serve" && workload != "query" && workload != "ingest") ||
      seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) ||
      workdir.empty()) {
    return Usage();
  }

  Run run;
  run.seed = static_cast<uint64_t>(seed);
  run.seconds = seconds;
  run.traced = trace == 1;
  run.work_dir = workdir;
  const int cpus = VisibleCpus();
  run.threads = std::min(cpus, 4);
  const std::string calibration = Calibration(cpus, run.threads);
  // From here on the process runs on one CPU, except the traced run's
  // concurrent slices. On a virtual machine a wake-up on another vCPU can
  // cost tens of microseconds when the host parks idle vCPUs and next to
  // nothing when it does not; that swung the loopback round trip by half
  // between otherwise equal runs. On one CPU every wake-up is local.
  run.Narrow();

  // Every phase prepares first (inputs, timed set-ups, correctness gates);
  // then the run measures them in turn, in several rounds, for --seconds in
  // all: half for the primary phase, a quarter for each short form.
  struct PhaseSpec {
    const char* name;
    std::unique_ptr<Phase> (*make)(Run*, bool);
  };
  const PhaseSpec specs[] = {
      {"serve", MakeServe}, {"query", MakeQuery}, {"ingest", MakeIngest}};
  std::vector<std::pair<std::unique_ptr<Phase>, double>> phases;
  for (const PhaseSpec& spec : specs) {
    if (workload == spec.name) {
      phases.insert(phases.begin(),
                    {spec.make(&run, true), kPrimaryShare * run.seconds});
    } else {
      phases.push_back({spec.make(&run, false), kShortShare * run.seconds});
    }
  }
  bool prepared = true;
  for (auto& [phase, budget] : phases) prepared = phase->Prepare() && prepared;
  if (!prepared) {
    std::fprintf(stderr, "perfbench: set-up failed; nothing measured\n");
    return 1;
  }
  // A unit of work (a query pass, an ingest cycle) can take longer than a
  // phase's share of a round. The time it overran is taken from the
  // phase's next rounds, which it skips while in debt, so every phase keeps
  // to its budget and the run to its length.
  std::vector<double> credit_s(phases.size(), 0);
  for (int round = 0; round < kRounds; ++round) {
    for (size_t p = 0; p < phases.size(); ++p) {
      credit_s[p] += phases[p].second / kRounds;
      if (credit_s[p] <= 0) continue;
      const int64_t start = NowNs();
      phases[p].first->Measure(credit_s[p]);
      credit_s[p] -= MsSince(start) / 1000;
    }
  }
  for (auto& [phase, budget] : phases) phase->Finish();

  if (run.traced) {
    const std::vector<Span> spans = run.tracer.spans();
    std::map<std::string, double> self = SelfMsByLayer(spans);
    double total = 0;
    for (const auto& [layer, ms] : self) total += ms;
    for (const char* layer :
         {"bench", "server", "query", "storage", "vpbn", "xml"}) {
      run.report.Set(std::string(layer) + ".self_pct",
                     total > 0 ? 100 * self[layer] / total : 0, "%");
    }
    run.report.Detail("spans", std::to_string(spans.size()));
    run.report.Detail("self_ms", JsonNumberMap(self));
    if (!trace_out.empty() && !run.tracer.WriteJsonLines(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  }

  run.report.Detail("workload", "\"" + workload + "\"");
  run.report.Detail("seed", std::to_string(run.seed));
  run.report.Detail("calibration", calibration);
  const double fail_ratio =
      run.report.attempted() == 0
          ? 1
          : static_cast<double>(run.report.failed()) / run.report.attempted();
  run.report.Detail("fail_ratio", std::to_string(fail_ratio));
  std::printf("%s\n", run.report.DetailsJson().c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              run.report.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(run.report.attempted()),
              static_cast<unsigned long long>(run.report.failed()),
              run.report.MetricsJson().c_str());
  return 0;
}
