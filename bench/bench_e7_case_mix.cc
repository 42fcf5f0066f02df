/// \file bench_e7_case_mix.cc
/// \brief E7 (Figure R5): all three level-array construction cases of §5.2
/// stay cheap, and the per-pair descendant check costs the same regardless
/// of which case produced the arrays.
///
/// Case 1: original descendants pulled up to children (book { name }).
/// Case 2: inversion — ancestors become children (name { author { book } }).
/// Case 3: siblings related through an LCA (title { author }).

#include <benchmark/benchmark.h>

#include "storage/stored_document.h"
#include "vpbn/virtual_document.h"
#include "workload/books.h"

namespace {

using namespace vpbn;

struct CaseSpec {
  const char* label;
  const char* spec;
  const char* upper_vpath;  // ancestor-side virtual type
  const char* lower_vpath;  // descendant-side virtual type
};

const CaseSpec kCases[] = {
    {"case1_descendant_to_child", "book { name }", "book", "book.name"},
    {"case2_inversion", "name { author { book } }", "name",
     "name.author.book"},
    {"case3_lca_sibling", "title { author }", "title", "title.author"},
};

struct Setup {
  xml::Document doc;
  storage::StoredDocument stored;

  static Setup* Get() {
    static Setup* s = [] {
      workload::BooksOptions opts;
      opts.num_books = 3000;
      auto* setup = new Setup{workload::GenerateBooks(opts), {}};
      setup->stored = storage::StoredDocument::Build(setup->doc);
      return setup;
    }();
    return s;
  }
};

void BM_LevelArrayBuild_Case(benchmark::State& state) {
  Setup* s = Setup::Get();
  const CaseSpec& c = kCases[state.range(0)];
  auto vg = vdg::VDataGuide::Create(c.spec, s->stored.dataguide());
  if (!vg.ok()) {
    state.SkipWithError(vg.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto map = virt::BuildLevelArrays(*vg);
    benchmark::DoNotOptimize(map);
  }
  state.SetLabel(c.label);
}
BENCHMARK(BM_LevelArrayBuild_Case)->DenseRange(0, 2);

void BM_VDescendantCheck_Case(benchmark::State& state) {
  Setup* s = Setup::Get();
  const CaseSpec& c = kCases[state.range(0)];
  auto vdoc = virt::VirtualDocument::Open(s->stored, c.spec);
  if (!vdoc.ok()) {
    state.SkipWithError(vdoc.status().ToString().c_str());
    return;
  }
  auto upper_t = vdoc->vguide().FindByVPath(c.upper_vpath).value();
  auto lower_t = vdoc->vguide().FindByVPath(c.lower_vpath).value();
  auto uppers = vdoc->NodesOfVType(upper_t);
  auto lowers = vdoc->NodesOfVType(lower_t);
  const virt::VpbnSpace& space = vdoc->space();
  size_t i = 0;
  long hits = 0;
  for (auto _ : state) {
    const auto& u = uppers[i % uppers.size()];
    const auto& l = lowers[(i * 7 + 3) % lowers.size()];
    ++i;
    hits += space.VDescendant(
        virt::Vpbn(s->stored.numbering().OfNode(l.node), l.vtype),
        virt::Vpbn(s->stored.numbering().OfNode(u.node), u.vtype));
  }
  benchmark::DoNotOptimize(hits);
  state.SetLabel(c.label);
}
BENCHMARK(BM_VDescendantCheck_Case)->DenseRange(0, 2);

/// Navigation throughput per case: expand all virtual children of every
/// upper-type instance.
void BM_ChildExpansion_Case(benchmark::State& state) {
  Setup* s = Setup::Get();
  const CaseSpec& c = kCases[state.range(0)];
  auto vdoc = virt::VirtualDocument::Open(s->stored, c.spec);
  if (!vdoc.ok()) {
    state.SkipWithError(vdoc.status().ToString().c_str());
    return;
  }
  auto upper_t = vdoc->vguide().FindByVPath(c.upper_vpath).value();
  auto uppers = vdoc->NodesOfVType(upper_t);
  for (auto _ : state) {
    size_t total = 0;
    for (const virt::VirtualNode& u : uppers) {
      total += vdoc->Children(u).size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetLabel(c.label);
  state.SetItemsProcessed(static_cast<int64_t>(uppers.size()) *
                          state.iterations());
}
BENCHMARK(BM_ChildExpansion_Case)->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
