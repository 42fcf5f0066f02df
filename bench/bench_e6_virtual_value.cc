/// \file bench_e6_virtual_value.cc
/// \brief E6 (Figure R4): computing transformed values (§6). Intact virtual
/// subtrees are served as single byte-range copies through the value index;
/// transformed regions are assembled element by element. Cost therefore
/// scales with how much of the hierarchy a transformation disturbs, not
/// with value size alone.

#include <benchmark/benchmark.h>

#include "storage/stored_document.h"
#include "vpbn/virtual_value.h"
#include "workload/books.h"

namespace {

using namespace vpbn;

struct Setup {
  xml::Document doc;
  storage::StoredDocument stored;

  static Setup* Get() {
    static Setup* s = [] {
      workload::BooksOptions opts;
      opts.num_books = 2000;
      auto* setup = new Setup{workload::GenerateBooks(opts), {}};
      setup->stored = storage::StoredDocument::Build(setup->doc);
      return setup;
    }();
    return s;
  }
};

/// Specs ordered by how much of the hierarchy they disturb.
const char* kSpecs[] = {
    // 0: identity — everything intact, one range copy per root.
    "data { ** }",
    // 1: top reshaped, book subtrees intact.
    "book { ** }",
    // 2: books reshaped, author/publisher subtrees intact.
    "book { title author publisher }",
    // 3: fully reshaped — every element reconstructed.
    "title { author { name } publisher { location } }",
};

void BM_VirtualValue(benchmark::State& state) {
  Setup* s = Setup::Get();
  auto vdoc = virt::VirtualDocument::Open(s->stored,
                                          kSpecs[state.range(0)]);
  if (!vdoc.ok()) {
    state.SkipWithError(vdoc.status().ToString().c_str());
    return;
  }
  virt::VirtualValueComputer values(*vdoc);
  std::vector<virt::VirtualNode> roots = vdoc->Roots();
  size_t bytes = 0;
  for (auto _ : state) {
    values.ResetStats();
    size_t total = 0;
    for (const virt::VirtualNode& root : roots) {
      total += values.Value(root).size();
    }
    bytes = total;
    benchmark::DoNotOptimize(total);
  }
  state.SetLabel(kSpecs[state.range(0)]);
  state.counters["value_bytes"] = static_cast<double>(bytes);
  state.counters["range_copies"] =
      static_cast<double>(values.stats().range_copies);
  state.counters["constructed_nodes"] =
      static_cast<double>(values.stats().constructed_nodes);
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
}
BENCHMARK(BM_VirtualValue)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

/// Reference: the physical value of the whole document through the value
/// index (a single memcpy-scale substring).
void BM_PhysicalValueIndexLookup(benchmark::State& state) {
  Setup* s = Setup::Get();
  const xml::NodeId root = s->stored.doc().roots()[0];
  for (auto _ : state) {
    auto v = s->stored.Value(root);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_PhysicalValueIndexLookup);

}  // namespace

BENCHMARK_MAIN();
