/// \file bench_e16_optimizer.cc
/// \brief E16: the engine's plan vs fixed plans, across workloads and
/// selectivities, with zone-map data skipping.
///
/// Three strategies answer the same query battery over the same
/// StoredDocuments:
///
///   nav        EvalNav over the stored document's DOM — tree walking,
///              no index at all
///   indexed    EvalIndexed directly — the per-node indexed plan forced
///              on every query: index scans per context node, value
///              comparisons by interned term, no predicate pushdown
///   optimizer  engine defaults — bulk for every query here (all lie in
///              the bulk fragment), with the cost model's predicate
///              strategies and zone-skipped scans
///
/// Results are byte-identical across all three (asserted on every query
/// before any timing); only the wall clock, the plan and the skip counters
/// move. The engine's claim: ahead of each fixed plan on the geomean
/// across the battery, and within a small margin of the best fixed plan
/// overall. Emits a table to stdout and a JSON record per query plus the
/// geomean summary.
///
///   $ ./bench_e16_optimizer [out.json] [--benchmark_min_time=0.01s]
///
/// The --benchmark_min_time flag (Google-Benchmark spelling, accepted for
/// CI smoke runs) shrinks the workload and repetition count.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "query/engine.h"
#include "query/eval_indexed.h"
#include "query/eval_nav.h"
#include "workload/auctions.h"
#include "workload/books.h"
#include "xml/parser.h"

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// A clustered corpus: `chunks` <chunk> elements, each holding `per_chunk`
/// sequential <id> values. The id column is perfectly value-ordered, the
/// best case for zone-map skipping (a cold range predicate rules out every
/// block of the early chunks on zone_max alone).
vpbn::xml::Document ClusteredDoc(int chunks, int per_chunk) {
  std::string xml = "<db>";
  int v = 0;
  for (int c = 0; c < chunks; ++c) {
    xml += "<chunk>";
    for (int i = 0; i < per_chunk; ++i) {
      xml += "<id>" + std::to_string(v++) + "</id>";
    }
    xml += "</chunk>";
  }
  xml += "</db>";
  auto parsed = vpbn::xml::Parse(xml);
  if (!parsed.ok()) {
    std::fprintf(stderr, "clustered corpus parse failed\n");
    std::exit(1);
  }
  return std::move(parsed).ValueUnsafe();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vpbn;
  using bench::Fmt;

  bool smoke = false;
  const char* out_path = "BENCH_e16.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_min_time=", 21) == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const int reps = smoke ? 3 : 11;

  workload::BooksOptions bopts;
  bopts.seed = 16;
  bopts.num_books = smoke ? 400 : 2000;
  auto books = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(workload::GenerateBooks(bopts)));

  workload::AuctionsOptions aopts;
  aopts.num_items = smoke ? 100 : 400;
  aopts.num_people = smoke ? 80 : 300;
  aopts.num_auctions = smoke ? 300 : 3000;
  auto auctions = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(workload::GenerateAuctions(aopts)));

  const int chunks = smoke ? 8 : 16;
  const int per_chunk = 2560;
  auto clustered = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(ClusteredDoc(chunks, per_chunk)));
  const int id_max = chunks * per_chunk - 1;

  auto first_title = query::EvalNav(books->doc(), "//title");
  if (!first_title.ok() || first_title->empty()) {
    std::fprintf(stderr, "no titles generated\n");
    return 1;
  }
  std::string rare_title = books->doc().StringValue(first_title->front());

  struct Case {
    const char* label;
    const char* workload;  ///< books | auctions | clustered
    std::string query;
  };
  const std::vector<Case> cases = {
      {"b-eq-rare", "books", "//book[title = \"" + rare_title + "\"]"},
      {"b-eq-name", "books", "//book[author/name = \"Ada Codd\"]"},
      {"b-range-narrow", "books", "//book[@year >= 2020]"},
      {"b-range-wide", "books", "//book[@year > 1980]"},
      {"b-struct", "books", "//book[author/name]/title"},
      {"a-chain-range", "auctions", "//auction[bidder/price > 120]"},
      {"a-range-leaf", "auctions", "//item[quantity >= 4]/name"},
      {"a-struct", "auctions", "//auction[bidder/personref]/itemref"},
      {"c-range-cold", "clustered",
       "//chunk[id >= " + std::to_string(id_max - per_chunk / 2) + "]"},
      {"c-range-hot", "clustered",
       "//chunk[id >= " + std::to_string(id_max / 10) + "]"},
      {"c-eq", "clustered",
       "//chunk[id = \"" + std::to_string(id_max / 2) + "\"]"},
  };

  std::printf(
      "E16 — the engine's plan vs fixed strategies (books: %zu "
      "nodes; auctions: %zu nodes; clustered: %zu nodes)\n\n",
      static_cast<size_t>(books->doc().num_nodes()),
      static_cast<size_t>(auctions->doc().num_nodes()),
      static_cast<size_t>(clustered->doc().num_nodes()));

  struct Row {
    std::string label;
    std::string workload;
    std::string query;
    size_t nodes = 0;
    std::string plan;
    uint64_t est_rows = 0;
    uint64_t zone_map_skips = 0;
    double nav_ms = 0;
    double indexed_ms = 0;
    double optimizer_ms = 0;
  };
  std::vector<Row> rows;
  size_t sink = 0;

  for (const Case& c : cases) {
    auto stored = c.workload[0] == 'b'   ? books
                  : c.workload[0] == 'a' ? auctions
                                         : clustered;
    query::QueryEngine engine(stored);
    auto prepared = engine.Prepare(c.query);
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   prepared.status().ToString().c_str());
      return 1;
    }
    query::ExecOverrides opt_opts;
    opt_opts.collect_stats = true;

    // One run per strategy up front: byte-identity across all three, and
    // the optimizer's stats for the record.
    auto nav_r = query::EvalNav(stored->doc(), prepared->path());
    auto idx_r = query::EvalIndexed(*stored, prepared->path());
    auto opt_r = engine.Execute(*prepared, opt_opts);
    if (!nav_r.ok() || !idx_r.ok() || !opt_r.ok()) {
      std::fprintf(stderr, "execute failed on %s\n", c.query.c_str());
      return 1;
    }
    // The stored document shares the DOM's NodeIds, so all three compare
    // directly.
    if (*nav_r != opt_r->node_ids() || *idx_r != opt_r->node_ids()) {
      std::fprintf(stderr, "DIVERGENCE on %s\n", c.query.c_str());
      return 1;
    }

    Row row;
    row.label = c.label;
    row.workload = c.workload;
    row.query = c.query;
    row.nodes = opt_r->size();
    row.plan = opt_r->stats().plan;
    row.est_rows = opt_r->stats().est_rows;
    row.zone_map_skips = opt_r->stats().zone_map_skips;
    opt_opts.collect_stats = false;
    row.nav_ms = bench::MedianMs(reps, [&] {
      sink += query::EvalNav(stored->doc(), prepared->path())->size();
    });
    row.indexed_ms = bench::MedianMs(reps, [&] {
      sink += query::EvalIndexed(*stored, prepared->path())->size();
    });
    row.optimizer_ms = bench::MedianMs(reps, [&] {
      sink += engine.Execute(*prepared, opt_opts)->size();
    });
    rows.push_back(std::move(row));
  }

  // Per-point best fixed plan and the geomean ledger.
  double log_nav = 0, log_idx = 0, log_best = 0;
  bench::Table table({"case", "plan", "nodes", "skips", "nav ms", "index ms",
                      "opt ms", "best fixed", "opt/best"});
  for (const Row& r : rows) {
    double best = std::min(r.nav_ms, r.indexed_ms);
    double opt = r.optimizer_ms > 0 ? r.optimizer_ms : 1e-9;
    log_nav += std::log(r.nav_ms / opt);
    log_idx += std::log(r.indexed_ms / opt);
    log_best += std::log(opt / (best > 0 ? best : 1e-9));
    table.AddRow({r.label, r.plan, std::to_string(r.nodes),
                  std::to_string(r.zone_map_skips), Fmt(r.nav_ms),
                  Fmt(r.indexed_ms), Fmt(r.optimizer_ms), Fmt(best),
                  Fmt(opt / (best > 0 ? best : 1e-9), 3)});
  }
  const double n = static_cast<double>(rows.size());
  const double gm_nav = std::exp(log_nav / n);
  const double gm_idx = std::exp(log_idx / n);
  const double gm_best = std::exp(log_best / n);
  table.Print();
  std::printf(
      "\ngeomean speedup of optimizer vs: nav %.3fx  indexed %.3fx;  "
      "optimizer/best-fixed %.3f\n",
      gm_nav, gm_idx, gm_best);

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"experiment\": \"e16_optimizer\",\n"
               "  \"workloads\": {\"books\": %zu, \"auctions\": %zu, "
               "\"clustered\": %zu},\n"
               "  \"reps\": %d,\n"
               "  \"hw_threads\": %u,\n"
               "  \"queries\": [",
               static_cast<size_t>(books->doc().num_nodes()),
               static_cast<size_t>(auctions->doc().num_nodes()),
               static_cast<size_t>(clustered->doc().num_nodes()), reps,
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    double best = std::min(r.nav_ms, r.indexed_ms);
    std::fprintf(
        out,
        "%s\n    {\"case\": \"%s\", \"workload\": \"%s\", \"query\": \"%s\", "
        "\"result_nodes\": %zu, \"plan\": \"%s\", \"est_rows\": %llu, "
        "\"zone_map_skips\": %llu, \"nav_ms\": %.4f, "
        "\"indexed_ms\": %.4f, \"optimizer_ms\": %.4f, "
        "\"best_fixed_ms\": %.4f, \"opt_over_best\": %.4f}",
        i == 0 ? "" : ",", r.label.c_str(), r.workload.c_str(),
        JsonEscape(r.query).c_str(), r.nodes, r.plan.c_str(),
        static_cast<unsigned long long>(r.est_rows),
        static_cast<unsigned long long>(r.zone_map_skips), r.nav_ms,
        r.indexed_ms, r.optimizer_ms, best,
        r.optimizer_ms / (best > 0 ? best : 1e-9));
  }
  std::fprintf(out,
               "\n  ],\n"
               "  \"geomean\": {\"nav_over_opt\": %.4f, "
               "\"indexed_over_opt\": %.4f, "
               "\"opt_over_best_fixed\": %.4f},\n"
               "  \"sink\": %zu\n}\n",
               gm_nav, gm_idx, gm_best, sink % 2);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
