/// \file bench_a1_ablations.cc
/// \brief A1 (ablations): the design choices DESIGN.md calls out, measured.
///
///   a) Binary snapshot load versus XML re-parse — the storage substrate's
///      load path.
///   b) Gapped dynamic numbering versus dense renumber-on-insert — the
///      update infrastructure the paper cites as orthogonal (§3).

#include <benchmark/benchmark.h>

#include "pbn/dynamic.h"
#include "workload/books.h"
#include "xml/binary_io.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace {

using namespace vpbn;

struct Setup {
  xml::Document doc;

  static Setup* Get() {
    static Setup* s = [] {
      workload::BooksOptions opts;
      opts.num_books = 1500;
      return new Setup{workload::GenerateBooks(opts)};
    }();
    return s;
  }
};

// ---- (a) snapshot load vs XML parse -----------------------------------

void BM_LoadPath(benchmark::State& state) {
  Setup* s = Setup::Get();
  bool binary = state.range(0) != 0;
  std::string xml_form = xml::SerializeDocument(s->doc);
  std::string blob = xml::WriteBinary(s->doc);
  for (auto _ : state) {
    if (binary) {
      auto d = xml::ReadBinary(blob);
      benchmark::DoNotOptimize(d);
    } else {
      auto d = xml::Parse(xml_form);
      benchmark::DoNotOptimize(d);
    }
  }
  state.SetLabel(binary ? "binary_snapshot" : "xml_parse");
  state.SetBytesProcessed(
      static_cast<int64_t>(binary ? blob.size() : xml_form.size()) *
      state.iterations());
}
BENCHMARK(BM_LoadPath)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---- (b) gapped vs dense dynamic numbering ----------------------------

void BM_InsertChurn(benchmark::State& state) {
  uint32_t gap = static_cast<uint32_t>(state.range(0));
  uint64_t renumbered = 0;
  for (auto _ : state) {
    xml::Document doc;
    xml::NodeId r = doc.AddElement("r", xml::kNullNode);
    xml::NodeId last = doc.AddElement("z", r);
    num::DynamicNumbering numbering(gap);
    numbering.NumberAll(doc);
    for (int i = 0; i < 500; ++i) {
      xml::NodeId c = doc.AddElement("m", r);
      numbering.OnInsertBefore(doc, c, last);
    }
    renumbered = numbering.stats().renumbered_nodes;
    benchmark::DoNotOptimize(renumbered);
  }
  state.SetLabel("gap=" + std::to_string(gap));
  state.counters["renumbered_nodes"] = static_cast<double>(renumbered);
}
BENCHMARK(BM_InsertChurn)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
