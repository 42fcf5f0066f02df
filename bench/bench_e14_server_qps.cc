/// \file bench_e14_server_qps.cc
/// \brief E14: closed-loop throughput and tail latency of the vpbnd server
/// stack — catalog dispatch, admission control, result cache, engine — on a
/// mixed-query workload over two documents and a virtual view.
///
/// The driver calls Server::HandleLine in-process from N concurrent client
/// threads (the exact per-line path a connection worker runs, minus socket
/// I/O, so the numbers describe the server stack rather than loopback TCP).
/// Each client runs a closed loop over a fixed query mix; the mix repeats,
/// so the steady state exercises the result cache. Every response is
/// classified by wire code: anything but 0 in the main phase is a failure.
/// A second, deliberately tiny-rate server then demonstrates load shedding —
/// only codes 0 and 3 (overload) are acceptable there.
///
/// Emits a table to stdout and a JSON record with QPS, p50/p95/p99 latency,
/// result-cache hit rate, and the shed counts.
///
///   $ ./bench_e14_server_qps [num_clients] [out.json]
///       [--benchmark_min_time=0.01s]
///
/// The --benchmark_min_time flag (Google-Benchmark spelling, accepted for
/// CI smoke runs) shrinks the workload and iteration count.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "server/catalog.h"
#include "server/server.h"
#include "workload/auctions.h"
#include "workload/books.h"
#include "xml/serializer.h"

namespace {

double PercentileMs(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0;
  size_t idx = static_cast<size_t>(p * (sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vpbn;
  using bench::Fmt;
  using Clock = std::chrono::steady_clock;

  bool smoke = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_min_time=", 21) == 0) {
      smoke = true;
    } else {
      positional.push_back(argv[i]);
    }
  }

  // Positional args: [num_clients] [out.json] — a non-numeric first arg is
  // the output path (so `--benchmark_min_time=... out.json` works).
  int num_clients = 8;
  const char* out_path = "BENCH_e14.json";
  size_t p = 0;
  if (p < positional.size() &&
      positional[p].find_first_not_of("0123456789") == std::string::npos) {
    num_clients = std::max(1, std::atoi(positional[p++].c_str()));
  }
  if (p < positional.size()) out_path = positional[p].c_str();
  const int iters_per_client = smoke ? 50 : 400;

  // --- Catalog: two documents + one virtual view ---------------------
  workload::BooksOptions bopts;
  bopts.seed = 14;
  bopts.num_books = smoke ? 200 : 1000;
  workload::AuctionsOptions aopts;
  aopts.num_items = smoke ? 60 : 200;
  aopts.num_people = smoke ? 50 : 150;
  aopts.num_auctions = smoke ? 150 : 1500;

  server::Catalog catalog;
  {
    Status s = catalog.AddDocumentXml(
        "books", xml::SerializeDocument(workload::GenerateBooks(bopts)));
    if (s.ok()) {
      s = catalog.AddDocumentXml(
          "auctions",
          xml::SerializeDocument(workload::GenerateAuctions(aopts)));
    }
    if (s.ok()) {
      s = catalog.AddView("auctions", "bids",
                          "auction { itemref bidder { price } }");
    }
    if (!s.ok()) {
      std::fprintf(stderr, "catalog setup failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }

  // The mix: repeated navigation, predicate, and view queries across both
  // documents. Repetition is deliberate — the steady state is supposed to
  // hit the result cache, as a server serving a real dashboard would.
  const std::vector<std::string> kMix = {
      "QUERY books //book/title",
      "QUERY books //book[@year >= 2000]/title",
      "QUERY books //book/author/name",
      "QUERY auctions //auction/bidder/price",
      "QUERY auctions //item/name",
      "QUERY auctions/bids //bidder/price",
      "QUERY auctions/bids //auction//price",
      "QUERY books --stats //book/title",
  };

  server::ServerOptions sopts;
  sopts.num_workers = num_clients;
  sopts.max_inflight = 0;  // measure throughput un-shed in the main phase
  server::Server server(&catalog, sopts);

  // Warm-up: one pass over the mix (pays lazy decode/index costs once).
  for (const std::string& line : kMix) {
    std::string r = server.HandleLine(line);
    if (r.rfind("{\"code\":0", 0) != 0) {
      std::fprintf(stderr, "warm-up failed on '%s': %s\n", line.c_str(),
                   r.c_str());
      return 1;
    }
  }

  // --- Main phase: closed loop, num_clients threads ------------------
  std::vector<std::vector<double>> latencies(num_clients);
  std::vector<uint64_t> failures(num_clients, 0);
  const uint64_t cache_hits_before = server.result_cache().hits();

  auto wall_start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        latencies[c].reserve(iters_per_client);
        for (int i = 0; i < iters_per_client; ++i) {
          const std::string& line = kMix[(c + i) % kMix.size()];
          auto t0 = Clock::now();
          std::string r = server.HandleLine(line);
          auto t1 = Clock::now();
          latencies[c].push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
          if (r.rfind("{\"code\":0", 0) != 0) ++failures[c];
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  std::vector<double> all_ms;
  uint64_t total_failures = 0;
  for (int c = 0; c < num_clients; ++c) {
    all_ms.insert(all_ms.end(), latencies[c].begin(), latencies[c].end());
    total_failures += failures[c];
  }
  std::sort(all_ms.begin(), all_ms.end());
  const uint64_t total_requests = all_ms.size();
  const double qps = wall_s > 0 ? total_requests / wall_s : 0;
  const uint64_t hits = server.result_cache().hits() - cache_hits_before;
  const uint64_t misses = server.result_cache().misses();
  const double hit_rate =
      total_requests > 0 ? static_cast<double>(hits) / total_requests : 0;

  if (total_failures > 0) {
    std::fprintf(stderr, "FAIL: %llu non-ok responses in the main phase\n",
                 static_cast<unsigned long long>(total_failures));
    return 1;
  }
  if (hits == 0) {
    std::fprintf(stderr, "FAIL: result cache never hit on a repeating mix\n");
    return 1;
  }

  // --- Overload phase: tiny token bucket, expect deliberate sheds ----
  server::ServerOptions shed_opts;
  shed_opts.rate_limit = 1;  // ~1 qps sustained
  shed_opts.burst = 2;
  server::Server shed_server(&catalog, shed_opts);
  uint64_t shed_ok = 0, shed_shed = 0, shed_other = 0;
  for (int i = 0; i < (smoke ? 20 : 100); ++i) {
    std::string r = shed_server.HandleLine(kMix[i % kMix.size()]);
    if (r.rfind("{\"code\":0", 0) == 0) {
      ++shed_ok;
    } else if (r.rfind("{\"code\":3", 0) == 0) {
      ++shed_shed;
    } else {
      ++shed_other;
    }
  }
  if (shed_other > 0 || shed_shed == 0) {
    std::fprintf(stderr,
                 "FAIL: overload phase ok=%llu shed=%llu other=%llu\n",
                 static_cast<unsigned long long>(shed_ok),
                 static_cast<unsigned long long>(shed_shed),
                 static_cast<unsigned long long>(shed_other));
    return 1;
  }

  // --- Report --------------------------------------------------------
  const double p50 = PercentileMs(all_ms, 0.50);
  const double p95 = PercentileMs(all_ms, 0.95);
  const double p99 = PercentileMs(all_ms, 0.99);
  std::printf(
      "E14 — server closed-loop QPS (%d clients, %d iters each, %zu-query "
      "mix, 2 docs + 1 view)\n\n",
      num_clients, iters_per_client, kMix.size());
  bench::Table table({"metric", "value"});
  table.AddRow({"requests", std::to_string(total_requests)});
  table.AddRow({"wall s", Fmt(wall_s, 3)});
  table.AddRow({"QPS", Fmt(qps, 1)});
  table.AddRow({"p50 ms", Fmt(p50)});
  table.AddRow({"p95 ms", Fmt(p95)});
  table.AddRow({"p99 ms", Fmt(p99)});
  table.AddRow({"cache hit rate", Fmt(100 * hit_rate, 1) + "%"});
  table.AddRow({"overload sheds", std::to_string(shed_shed) + " of " +
                                      std::to_string(shed_shed + shed_ok)});
  table.Print();

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"experiment\": \"e14_server_qps\",\n"
      "  \"clients\": %d,\n"
      "  \"iters_per_client\": %d,\n"
      "  \"mix_size\": %zu,\n"
      "  \"documents\": 2,\n"
      "  \"views\": 1,\n"
      "  \"requests\": %llu,\n"
      "  \"failures\": %llu,\n"
      "  \"wall_s\": %.4f,\n"
      "  \"qps\": %.1f,\n"
      "  \"latency_ms\": {\"p50\": %.4f, \"p95\": %.4f, \"p99\": %.4f},\n"
      "  \"result_cache\": {\"hits\": %llu, \"misses\": %llu, "
      "\"hit_rate\": %.4f},\n"
      "  \"overload_phase\": {\"ok\": %llu, \"shed\": %llu, \"other\": %llu}\n"
      "}\n",
      num_clients, iters_per_client, kMix.size(),
      static_cast<unsigned long long>(total_requests),
      static_cast<unsigned long long>(total_failures), wall_s, qps, p50, p95,
      p99, static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses), hit_rate,
      static_cast<unsigned long long>(shed_ok),
      static_cast<unsigned long long>(shed_shed),
      static_cast<unsigned long long>(shed_other));
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
