/// \file bench_e2_axis_throughput.cc
/// \brief E2 (Table R1): per-pair axis decisions with vPBN cost about the
/// same as with plain PBN — the paper's "modest cost" claim (§1, §5).
///
/// For every axis, times the physical predicate on raw PBN numbers and the
/// virtual predicate on vPBN numbers (number + level array + type test)
/// over the same pre-drawn sample of node pairs from a book catalog.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "pbn/axis.h"
#include "storage/stored_document.h"
#include "vpbn/virtual_document.h"
#include "workload/books.h"

namespace {

using namespace vpbn;

struct Setup {
  xml::Document doc;
  storage::StoredDocument stored;
  virt::VirtualDocument vdoc;
  std::vector<virt::VirtualNode> nodes;
  std::vector<std::pair<size_t, size_t>> pairs;

  static Setup* Get() {
    static Setup* setup = [] {
      workload::BooksOptions opts;
      opts.num_books = 2000;
      auto* s = new Setup{workload::GenerateBooks(opts), {}, {}, {}, {}};
      s->stored = storage::StoredDocument::Build(s->doc);
      auto v = virt::VirtualDocument::Open(s->stored,
                                           "title { author { name } }");
      s->vdoc = std::move(v).ValueUnsafe();
      for (vdg::VTypeId t = 0; t < s->vdoc.vguide().num_vtypes(); ++t) {
        for (const auto& n : s->vdoc.NodesOfVType(t)) s->nodes.push_back(n);
      }
      Rng rng(4242);
      for (int i = 0; i < 4096; ++i) {
        s->pairs.emplace_back(rng.Uniform(s->nodes.size()),
                              rng.Uniform(s->nodes.size()));
      }
      return s;
    }();
    return setup;
  }
};

const num::Axis kAxes[] = {
    num::Axis::kSelf,           num::Axis::kChild,
    num::Axis::kParent,         num::Axis::kAncestor,
    num::Axis::kDescendant,     num::Axis::kAncestorOrSelf,
    num::Axis::kDescendantOrSelf, num::Axis::kFollowing,
    num::Axis::kPreceding,      num::Axis::kFollowingSibling,
    num::Axis::kPrecedingSibling};

void BM_PbnAxis(benchmark::State& state) {
  Setup* s = Setup::Get();
  num::Axis axis = kAxes[state.range(0)];
  const num::Numbering& numbering = s->stored.numbering();
  size_t i = 0;
  long hits = 0;
  for (auto _ : state) {
    const auto& [a, b] = s->pairs[i++ & 4095];
    hits += num::CheckAxis(axis, numbering.OfNode(s->nodes[a].node),
                           numbering.OfNode(s->nodes[b].node));
  }
  benchmark::DoNotOptimize(hits);
  state.SetLabel(std::string("pbn/") + num::AxisToString(axis));
}
BENCHMARK(BM_PbnAxis)->DenseRange(0, 10);

void BM_VpbnAxis(benchmark::State& state) {
  Setup* s = Setup::Get();
  num::Axis axis = kAxes[state.range(0)];
  const virt::VpbnSpace& space = s->vdoc.space();
  size_t i = 0;
  long hits = 0;
  for (auto _ : state) {
    const auto& [a, b] = s->pairs[i++ & 4095];
    const virt::VirtualNode& x = s->nodes[a];
    const virt::VirtualNode& y = s->nodes[b];
    hits += space.VCheckAxis(
        axis, virt::Vpbn(s->stored.numbering().OfNode(x.node), x.vtype),
        virt::Vpbn(s->stored.numbering().OfNode(y.node), y.vtype));
  }
  benchmark::DoNotOptimize(hits);
  state.SetLabel(std::string("vpbn/") + num::AxisToString(axis));
}
BENCHMARK(BM_VpbnAxis)->DenseRange(0, 10);

}  // namespace

BENCHMARK_MAIN();
