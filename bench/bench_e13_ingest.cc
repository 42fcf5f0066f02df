/// \file bench_e13_ingest.cc
/// \brief E13: the ingest pipeline and full-index snapshots. Reports the
/// cold-start path stage by stage — parse, build, snapshot write, snapshot
/// load — and the end-to-end first-query latency from XML vs from a
/// snapshot, on the XMark-style auctions workload.
///
/// Both cold starts must answer the first query with the same hit count.
/// Emits a table to stdout and a JSON record with per-stage medians and
/// the snapshot-load speedup over parse+build.
///
///   $ ./bench_e13_ingest [num_auctions] [out.json]
///       [--benchmark_min_time=0.01s]
///
/// The --benchmark_min_time flag (Google-Benchmark spelling, accepted for
/// CI smoke runs) shrinks the workload and repetition count.

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

  // Positional args: [num_auctions] [out.json] — a non-numeric first arg
  // is the output path (so `--benchmark_min_time=... out.json` works).
  workload::AuctionsOptions opts;
  opts.num_items = smoke ? 100 : 400;
  opts.num_people = smoke ? 80 : 300;
  opts.num_auctions = smoke ? 300 : 4000;
  const char* out_path = "BENCH_e13.json";
  size_t p = 0;
  if (p < positional.size() &&
      positional[p].find_first_not_of("0123456789") == std::string::npos) {
    opts.num_auctions = std::atoi(positional[p++].c_str());
  }
  if (p < positional.size()) out_path = positional[p].c_str();
  const int reps = smoke ? 3 : 7;
  const char* kQuery = "//auction[bidder/price > 120]";

  // The workload as it would arrive: one XML string.
  std::string xml_text =
      xml::SerializeDocument(workload::GenerateAuctions(opts));

  auto parsed = xml::Parse(xml_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  xml::Document doc = std::move(parsed).ValueUnsafe();
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  std::string snap = storage::Snapshot::Write(stored);

  std::printf(
      "E13 — ingest pipeline and snapshots (auctions, %zu nodes, "
      "%d auctions; xml %zu bytes, snapshot %zu bytes)\n\n",
      static_cast<size_t>(doc.num_nodes()), opts.num_auctions,
      xml_text.size(), snap.size());

  // --- Stage medians -------------------------------------------------
  double parse_ms = bench::MedianMs(reps, [&] {
    auto r = xml::Parse(xml_text);
    if (!r.ok()) std::abort();
  });

  double build_ms =
      bench::MedianMs(reps, [&] { storage::StoredDocument::Build(doc); });

  double write_ms =
      bench::MedianMs(reps, [&] { storage::Snapshot::Write(stored); });
  double load_ms = bench::MedianMs(reps, [&] {
    auto r = storage::Snapshot::Load(snap);
    if (!r.ok()) std::abort();
  });

  // --- First-query latency: XML cold start vs snapshot cold start ----
  size_t xml_hits = 0;
  double first_query_xml_ms = bench::MedianMs(reps, [&] {
    auto d = xml::Parse(xml_text);
    auto s = std::make_shared<const storage::StoredDocument>(
        storage::StoredDocument::Build(std::move(*d)));
    query::QueryEngine engine(s);
    xml_hits = engine.Execute(kQuery, {})->size();
  });
  size_t snap_hits = 0;
  double first_query_snap_ms = bench::MedianMs(reps, [&] {
    auto loaded = storage::Snapshot::Load(snap);
    auto s = std::make_shared<const storage::StoredDocument>(
        std::move(*loaded));
    query::QueryEngine engine(s);
    snap_hits = engine.Execute(kQuery, {})->size();
  });
  if (xml_hits != snap_hits) {
    std::fprintf(stderr, "MISMATCH: first query %zu vs %zu hits\n",
                 xml_hits, snap_hits);
    return 1;
  }

  double load_speedup = load_ms > 0 ? (parse_ms + build_ms) / load_ms : 0;

  bench::Table table({"stage", "ms", "vs baseline"});
  table.AddRow({"parse", Fmt(parse_ms), ""});
  table.AddRow({"build", Fmt(build_ms), ""});
  table.AddRow({"snapshot write", Fmt(write_ms), ""});
  table.AddRow({"snapshot load", Fmt(load_ms),
                Fmt(load_speedup, 2) + "x vs parse+build"});
  table.AddRow({"first query (xml)", Fmt(first_query_xml_ms), ""});
  table.AddRow({"first query (snapshot)", Fmt(first_query_snap_ms),
                Fmt(first_query_snap_ms > 0
                        ? first_query_xml_ms / first_query_snap_ms
                        : 0,
                    2) +
                    "x"});
  table.Print();
  std::printf("\nquery: %s (%zu hits)\n", kQuery, xml_hits);

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"experiment\": \"e13_ingest\",\n"
      "  \"hw_threads\": %u,\n"
      "  \"workload\": {\"nodes\": %zu, \"auctions\": %d, "
      "\"xml_bytes\": %zu, \"snapshot_bytes\": %zu},\n"
      "  \"reps\": %d,\n"
      "  \"parse_ms\": %.4f,\n"
      "  \"build_ms\": %.4f,\n"
      "  \"snapshot_write_ms\": %.4f,\n"
      "  \"snapshot_load_ms\": %.4f,\n"
      "  \"snapshot_load_speedup\": %.3f,\n"
      "  \"first_query_xml_ms\": %.4f,\n"
      "  \"first_query_snapshot_ms\": %.4f,\n"
      "  \"first_query_hits\": %zu\n"
      "}\n",
      std::thread::hardware_concurrency(),
      static_cast<size_t>(doc.num_nodes()), opts.num_auctions,
      xml_text.size(), snap.size(), reps, parse_ms, build_ms, write_ms,
      load_ms, load_speedup, first_query_xml_ms, first_query_snap_ms,
      xml_hits);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
