/// \file bench_e17_cold_start.cc
/// \brief E17: cold start of a snapshot large enough to matter — streamed
/// generation of a ten-million-node auctions corpus, then the first query
/// against an evicted mmap-loaded snapshot against the same query warm
/// (pass a smaller scale or a --benchmark_min_time flag for a smoke run).
///
///   $ ./bench_e17_cold_start [scale] [out.json]
///       [--benchmark_min_time=0.01s]
///
/// \p scale is the XMark-style factor fed to workload::ScaledAuctions
/// (28 ~= 10M nodes; the smoke default is 0.05).

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
#include "query/engine.h"
#include "storage/snapshot.h"
#include "storage/stored_document.h"
#include "workload/auctions.h"

int main(int argc, char** argv) {
  using namespace vpbn;

  bool smoke = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_min_time=", 21) == 0) {
      smoke = true;
    } else {
      positional.push_back(argv[i]);
    }
  }

  double scale = smoke ? 0.05 : 28.0;
  const char* out_path = "BENCH_e17.json";
  size_t p = 0;
  if (p < positional.size() &&
      positional[p].find_first_not_of("0123456789.") == std::string::npos) {
    scale = std::atof(positional[p++].c_str());
  }
  if (p < positional.size()) out_path = positional[p].c_str();
  const int reps = smoke ? 3 : 5;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  // --- Corpus (streamed generation) -------------------------------------
  workload::AuctionsOptions opts = workload::ScaledAuctions(scale);
  std::fprintf(stderr,
               "e17: generating auctions at scale %.3g "
               "(%d items, %d people, %d auctions)\n",
               scale, opts.num_items, opts.num_people, opts.num_auctions);
  uint64_t last_pct = 0;
  xml::Document doc = workload::GenerateAuctionsChunked(
      opts, 100000, [&](uint64_t done, uint64_t total) {
        uint64_t pct = total == 0 ? 100 : 100 * done / total;
        if (pct >= last_pct + 10) {
          std::fprintf(stderr, "e17: generated %llu%%\n",
                       static_cast<unsigned long long>(pct));
          last_pct = pct;
        }
      });
  const size_t num_nodes = doc.num_nodes();
  std::fprintf(stderr, "e17: %zu nodes\n", num_nodes);

  // --- Snapshot + cold/warm mmap residency ------------------------------
  const std::string snap_path = "/tmp/bench_e17.vpsn";
  {
    const storage::StoredDocument stored =
        storage::StoredDocument::Build(std::move(doc));
    if (!storage::Snapshot::WriteFile(stored, snap_path).ok()) {
      std::fprintf(stderr, "cannot write %s\n", snap_path.c_str());
      return 1;
    }
  }
  auto loaded = storage::Snapshot::LoadFile(snap_path, /*use_mmap=*/true);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  auto shared = std::make_shared<const storage::StoredDocument>(
      std::move(*loaded));
  const size_t snapshot_bytes = shared->snapshot_bytes();
  const size_t resident_after_load = shared->resident_mapped_bytes();
  query::QueryEngine engine(shared);

  // Cold first query: pages evicted, then one mid-selective query pays
  // the page-in plus lazy-decode cost.
  const char* kQuery = "//auction[bidder/price > 120]/itemref";
  shared->EvictMappedPages();
  const size_t resident_cold = shared->resident_mapped_bytes();
  double cold_ms = 0;
  size_t hits = 0;
  {
    auto t0 = std::chrono::steady_clock::now();
    auto r = engine.Execute(kQuery, {});
    cold_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    if (!r.ok()) return 1;
    hits = r->size();
  }
  const size_t resident_warm = shared->resident_mapped_bytes();
  double warm_ms = bench::MedianMs(reps, [&] {
    if (!engine.Execute(kQuery, {}).ok()) std::abort();
  });

  // --- Report -----------------------------------------------------------
  std::printf("E17 — cold start (auctions scale %.3g, %zu nodes, %u hw "
              "threads)\n\n",
              scale, num_nodes, hw);
  std::printf("snapshot %zu B; mmap residency: after load %zu B, evicted "
              "%zu B, after query %zu B\n",
              snapshot_bytes, resident_after_load, resident_cold,
              resident_warm);
  std::printf("%s (%zu hits): cold %.2f ms, warm %.2f ms\n", kQuery, hits,
              cold_ms, warm_ms);

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"experiment\": \"e17_cold_start\",\n"
               "  \"workload\": {\"generator\": \"auctions\", \"scale\": "
               "%.4f, \"nodes\": %zu, \"hw_threads\": %u},\n",
               scale, num_nodes, hw);
  std::fprintf(out,
               "  \"mmap\": {\"snapshot_bytes\": %zu, "
               "\"resident_after_load\": %zu, \"resident_evicted\": %zu, "
               "\"resident_after_query\": %zu, \"query\": \"%s\", "
               "\"hits\": %zu, \"cold_query_ms\": %.3f, "
               "\"warm_query_ms\": %.3f}\n",
               snapshot_bytes, resident_after_load, resident_cold,
               resident_warm, kQuery, hits, cold_ms, warm_ms);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  std::remove(snap_path.c_str());
  return 0;
}
