/// \file bench_a1_ablations.cc
/// \brief A1 (ablations): binary snapshot load versus XML re-parse — the
/// storage substrate's load path.

#include <benchmark/benchmark.h>

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

}  // namespace

BENCHMARK_MAIN();
