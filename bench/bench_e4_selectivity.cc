/// \file bench_e4_selectivity.cc
/// \brief E4 (Figure R3): the virtual strategy's advantage versus query
/// selectivity and reuse. "Our approach is to virtually transform only the
/// data needed by the query" (§4.3): at low selectivity the baseline
/// materializes mostly-unused data; when the whole view result is reused
/// many times, materializing once can win — the crossover.
///
/// Fixed book catalog; the query's year predicate sweeps selectivity from
/// under 2% to 100%; Q repeats the query (materialization amortizes). Both
/// sides run what a user runs: QueryEngine Execute plus value rendering,
/// over the view or over the materialized instance after its renumbering.

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>

#include "bench/bench_util.h"
#include "pbn/numbering.h"
#include "query/engine.h"
#include "vpbn/materializer.h"
#include "vpbn/virtual_document.h"
#include "workload/books.h"

namespace {

/// Executes \p path on \p engine and renders its values; aborts on error.
/// Returns the number of values.
size_t ExecuteAndRender(const vpbn::query::QueryEngine& engine,
                        const std::string& path) {
  auto r = engine.Execute(path);
  if (!r.ok()) std::abort();
  std::deque<std::string> owned;
  return engine.StringValueViews(*r, &owned).size();
}

}  // namespace

int main() {
  using namespace vpbn;
  using bench::Fmt;

  workload::BooksOptions opts;
  opts.seed = 11;
  opts.num_books = 8000;
  auto stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(workload::GenerateBooks(opts)));
  const char* kSpec = "book { title author { name } }";
  auto vdoc = virt::VirtualDocument::OpenShared(stored, kSpec);
  if (!vdoc.ok()) {
    std::fprintf(stderr, "%s\n", vdoc.status().ToString().c_str());
    return 1;
  }
  const query::QueryEngine view_engine(*vdoc);

  std::printf(
      "E4 / Figure R3 — selectivity and reuse (doc: %zu nodes, view: %s)\n"
      "query: //book[@year < Y]/author/name, Y sweeps selectivity;"
      " Q = repeated evaluations\n\n",
      stored->doc().num_nodes(), kSpec);

  bench::Table table({"year<", "sel%", "Q", "virtual_total_ms",
                      "baseline_total_ms", "winner", "factor"});

  // Years are uniform in [1960, 2024].
  struct Sweep {
    int year;
    double sel;
  };
  const Sweep sweeps[] = {{1961, 1.5}, {1966, 9.2}, {1976, 24.6},
                          {1992, 49.2}, {2025, 100.0}};
  for (const Sweep& s : sweeps) {
    std::string q = "//book[@year < " + std::to_string(s.year) +
                    "]/author/name";
    for (int reuse : {1, 16, 64}) {
      size_t virtual_values = 0;
      double virtual_ms = bench::MedianMs(3, [&] {
        for (int i = 0; i < reuse; ++i) {
          virtual_values = ExecuteAndRender(view_engine, q);
        }
      });
      size_t baseline_values = 0;
      double baseline_ms = bench::MedianMs(3, [&] {
        auto m = virt::Materialize(**vdoc);
        auto n = num::Numbering::Number(m->doc);
        (void)n;
        const query::QueryEngine engine(std::make_shared<const xml::Document>(
            std::move(m->doc)));
        for (int i = 0; i < reuse; ++i) {
          baseline_values = ExecuteAndRender(engine, q);
        }
      });
      if (virtual_values != baseline_values) {
        std::fprintf(stderr, "MISMATCH: view %zu values, materialized %zu\n",
                     virtual_values, baseline_values);
        return 1;
      }
      bool virtual_wins = virtual_ms <= baseline_ms;
      double factor = virtual_wins ? baseline_ms / virtual_ms
                                   : virtual_ms / baseline_ms;
      table.AddRow({std::to_string(s.year), Fmt(s.sel, 1),
                    std::to_string(reuse), Fmt(virtual_ms),
                    Fmt(baseline_ms),
                    virtual_wins ? "virtual" : "materialize",
                    Fmt(factor, 1) + "x"});
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: virtual wins everywhere at Q=1 (largest at low"
      " selectivity);\nthe baseline catches up and crosses over as Q grows,"
      " since one materialization\namortizes over many evaluations.\n");
  return 0;
}
