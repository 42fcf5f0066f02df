/// \file bench_e15_snapshot_v2.cc
/// \brief E15: snapshot format v2 — compressed size vs the source XML,
/// cold-start load latency of the copy-load against the mmap load, and
/// end-to-end first-query latency, on the same auctions corpus E13 uses.
///
/// The load paths are gated on correctness first: both must restore
/// documents that re-snapshot to the built document's bytes and answer the
/// probe query with the same result count before anything is timed.
///
///   $ ./bench_e15_snapshot_v2 [num_auctions] [out.json]
///       [--benchmark_min_time=0.01s]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "query/engine.h"
#include "storage/snapshot.h"
#include "storage/stored_document.h"
#include "workload/auctions.h"
#include "xml/parser.h"
#include "xml/serializer.h"

int main(int argc, char** argv) {
  using namespace vpbn;
  using bench::Fmt;

  bool smoke = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_min_time=", 21) == 0) {
      smoke = true;
    } else {
      positional.push_back(argv[i]);
    }
  }

  workload::AuctionsOptions opts;
  opts.num_items = smoke ? 100 : 400;
  opts.num_people = smoke ? 80 : 300;
  opts.num_auctions = smoke ? 300 : 4000;
  const char* out_path = "BENCH_e15.json";
  size_t p = 0;
  if (p < positional.size() &&
      positional[p].find_first_not_of("0123456789") == std::string::npos) {
    opts.num_auctions = std::atoi(positional[p++].c_str());
  }
  if (p < positional.size()) out_path = positional[p].c_str();
  const int reps = smoke ? 3 : 9;
  const char* kQuery = "//auction[bidder/price > 120]";

  std::string xml_text =
      xml::SerializeDocument(workload::GenerateAuctions(opts));
  auto parsed = xml::Parse(xml_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  storage::StoredDocument stored =
      storage::StoredDocument::Build(std::move(*parsed));

  std::string v2 = storage::Snapshot::Write(stored);
  const std::string v2_path = std::string("/tmp/bench_e15_v2.vpsn");
  if (!storage::Snapshot::WriteFile(stored, v2_path).ok()) {
    std::fprintf(stderr, "cannot write snapshot file\n");
    return 1;
  }

  // Correctness gate: the copy-load and the mmap load restore documents
  // that re-snapshot to the built document's bytes and agree on the probe
  // query.
  size_t probe_hits = 0;
  {
    auto copied = storage::Snapshot::LoadFile(v2_path, false);
    auto mapped = storage::Snapshot::LoadFile(v2_path, true);
    if (!copied.ok() || !mapped.ok()) {
      std::fprintf(stderr, "load failed\n");
      return 1;
    }
    if (storage::Snapshot::Write(*copied) != v2 ||
        storage::Snapshot::Write(*mapped) != v2) {
      std::fprintf(stderr, "MISMATCH: restores differ from the build\n");
      return 1;
    }
    auto s1 = std::make_shared<const storage::StoredDocument>(
        std::move(*copied));
    auto s2 = std::make_shared<const storage::StoredDocument>(
        std::move(*mapped));
    size_t h1 = query::QueryEngine(s1).Execute(kQuery, {})->size();
    size_t h2 = query::QueryEngine(s2).Execute(kQuery, {})->size();
    if (h1 != h2) {
      std::fprintf(stderr, "MISMATCH: %zu vs %zu hits\n", h1, h2);
      return 1;
    }
    probe_hits = h1;
  }

  std::printf(
      "E15 — snapshot v2 (auctions, %d auctions; xml %zu B, v2 %zu B => "
      "%.2fx vs xml)\n\n",
      opts.num_auctions, xml_text.size(), v2.size(),
      v2.empty() ? 0 : static_cast<double>(xml_text.size()) / v2.size());

  // --- Cold-start load latency ----------------------------------------
  // The mmap load is the default (checksum, derive, leave arenas lazy);
  // the copy-load isolates what the mapping saves. First-touch decode is
  // charged where a workload pays it: the first-query median below runs a
  // real query after load.
  double v2_copy_ms = bench::MedianMs(reps, [&] {
    auto r = storage::Snapshot::LoadFile(v2_path, false);
    if (!r.ok()) std::abort();
  });
  double v2_mmap_ms = bench::MedianMs(reps, [&] {
    auto r = storage::Snapshot::LoadFile(v2_path, true);
    if (!r.ok()) std::abort();
  });

  // --- First-query latency (load + one real query) --------------------
  auto first_query = [&](const std::string& path, bool mmap) {
    return bench::MedianMs(reps, [&] {
      auto r = storage::Snapshot::LoadFile(path, mmap);
      if (!r.ok()) std::abort();
      auto s = std::make_shared<const storage::StoredDocument>(
          std::move(*r));
      query::QueryEngine engine(s);
      if (engine.Execute(kQuery, {})->size() != probe_hits) std::abort();
    });
  };
  double v2_first_ms = first_query(v2_path, true);

  bench::Table table({"path", "ms"});
  table.AddRow({"v2 copy-load", Fmt(v2_copy_ms)});
  table.AddRow({"v2 mmap-load", Fmt(v2_mmap_ms)});
  table.AddRow({"v2 load+query (mmap)", Fmt(v2_first_ms)});
  table.Print();

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"experiment\": \"e15_snapshot_v2\",\n"
               "  \"workload\": {\"generator\": \"auctions\", \"auctions\": "
               "%d, \"probe_hits\": %zu},\n",
               opts.num_auctions, probe_hits);
  std::fprintf(out,
               "  \"sizes\": {\"xml_bytes\": %zu, \"v2_bytes\": %zu, "
               "\"v2_vs_xml\": %.3f},\n",
               xml_text.size(), v2.size(),
               v2.empty() ? 0
                          : static_cast<double>(xml_text.size()) / v2.size());
  std::fprintf(out,
               "  \"load\": {\"v2_copy_ms\": %.4f, \"v2_mmap_ms\": %.4f},\n",
               v2_copy_ms, v2_mmap_ms);
  std::fprintf(out, "  \"first_query\": {\"v2_mmap_ms\": %.4f}\n",
               v2_first_ms);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  std::remove(v2_path.c_str());
  return 0;
}
