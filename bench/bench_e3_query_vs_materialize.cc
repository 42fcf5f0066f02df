/// \file bench_e3_query_vs_materialize.cc
/// \brief E3 (Figure R2): end-to-end query cost versus document size —
/// virtual evaluation with vPBN against the materialize + renumber +
/// query baseline the paper argues is too expensive (§2, §4.3).
///
/// Workload: Rhonda's pipeline over Sam's view (title { author { name } })
/// on book catalogs of growing size. Both sides run what a user runs: a
/// QueryEngine executes the path and renders the answer's values, over the
/// view on one side and over the materialized instance (after its
/// renumbering) on the other. Before timing, each size checks that both
/// sides render the same values in the same order; a mismatch exits 1.
///
/// Usage: bench_e3_query_vs_materialize [out.json]
/// (default BENCH_e3.json).

#include <cstdio>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "pbn/numbering.h"
#include "query/engine.h"
#include "vpbn/materializer.h"
#include "vpbn/virtual_document.h"
#include "workload/books.h"
#include "xml/serializer.h"

namespace {

using namespace vpbn;

/// Runs \p path on \p engine and renders every value: the work a user's
/// request costs. Returns the number of values (0 on error).
size_t ExecuteAndRender(const query::QueryEngine& engine,
                        const std::string& path) {
  auto r = engine.Execute(path);
  if (!r.ok()) return 0;
  std::deque<std::string> owned;
  return engine.StringValueViews(*r, &owned).size();
}

/// The virtual answer's rendered values, as a user reads them.
std::vector<std::string> ViewValues(const query::QueryEngine& engine,
                                    const std::string& path) {
  auto r = engine.Execute(path);
  return r.ok() ? engine.StringValues(*r) : std::vector<std::string>{};
}

/// The baseline answer's values in the same rendering: each materialized
/// node serialized, one per virtual node (a node shared below several
/// parents materializes as several copies).
std::vector<std::string> MaterializedValues(const virt::Materialized& m,
                                            const query::QueryEngine& engine,
                                            const std::string& path) {
  std::vector<std::string> out;
  auto r = engine.Execute(path);
  if (!r.ok()) return out;
  std::set<std::pair<xml::NodeId, vdg::VTypeId>> seen;
  for (xml::NodeId id : r->node_ids()) {
    const virt::VirtualNode& v = m.provenance[id];
    if (seen.emplace(v.node, v.vtype).second) {
      out.push_back(xml::SerializeNode(m.doc, id));
    }
  }
  return out;
}

struct Row {
  std::string query;
  std::string path;
  int books = 0;
  size_t doc_nodes = 0;
  size_t result_values = 0;
  double virtual_ms = 0;
  double materialize_ms = 0;
  double renumber_ms = 0;
  double query_after_ms = 0;
  double baseline_total_ms() const {
    return materialize_ms + renumber_ms + query_after_ms;
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::Fmt;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_e3.json";

  std::printf(
      "E3 / Figure R2 — query through a virtual hierarchy vs materialize +"
      " renumber + query\nview: title { author { name } }; both sides run"
      " QueryEngine Execute + value rendering\n");

  const char* kSpec = "title { author { name } }";
  // The selective query names one title: book 77's. The generator draws
  // each book's topic in sequence, so the title is the same at every size.
  workload::BooksOptions probe;
  probe.seed = 7;
  probe.num_books = 100;
  const xml::Document probe_doc = workload::GenerateBooks(probe);
  auto title77 =
      query::QueryEngine(std::shared_ptr<const xml::Document>(
                             std::shared_ptr<const void>(), &probe_doc))
          .Execute("//book[@id = \"b77\"]/title");
  if (!title77.ok() || title77->size() != 1) {
    std::fprintf(stderr, "book b77 has no title\n");
    return 1;
  }
  struct Query {
    const char* label;
    std::string text;
  };
  const Query queries[] = {
      {"selective", "//title[text() = \"" +
                        probe_doc.StringValue(title77->node_ids()[0]) +
                        "\"]/author/name"},
      {"full_scan", "//title[author/name = \"Ada Codd\"]"},
  };

  std::vector<Row> rows;
  for (const Query& q : queries) {
    std::printf("\nquery: %s  —  %s\n\n", q.text.c_str(), q.label);
    bench::Table table({"books", "doc_nodes", "values", "virtual_ms",
                        "materialize_ms", "renumber_ms", "query_after_ms",
                        "baseline_total_ms", "speedup"});
    for (int books : {100, 400, 1600, 6400, 25600}) {
      workload::BooksOptions opts;
      opts.seed = 7;
      opts.num_books = books;
      auto stored = std::make_shared<const storage::StoredDocument>(
          storage::StoredDocument::Build(workload::GenerateBooks(opts)));
      auto vdoc = virt::VirtualDocument::OpenShared(stored, kSpec);
      if (!vdoc.ok()) {
        std::fprintf(stderr, "%s\n", vdoc.status().ToString().c_str());
        return 1;
      }
      const query::QueryEngine view_engine(*vdoc);
      const int reps = books <= 1600 ? 7 : 3;

      // Identity gate, before timing: the same values in the same order.
      auto gate = virt::Materialize(**vdoc);
      if (!gate.ok()) {
        std::fprintf(stderr, "%s\n", gate.status().ToString().c_str());
        return 1;
      }
      // A non-owning aliasing pointer: `gate` outlives the engine.
      const query::QueryEngine gate_engine(std::shared_ptr<const xml::Document>(
          std::shared_ptr<const void>(), &gate->doc));
      const std::vector<std::string> want =
          MaterializedValues(*gate, gate_engine, q.text);
      const std::vector<std::string> got = ViewValues(view_engine, q.text);
      if (got != want) {
        std::fprintf(stderr,
                     "MISMATCH at %d books: view rendered %zu values, "
                     "materialized instance %zu\n",
                     books, got.size(), want.size());
        return 1;
      }

      Row row;
      row.query = q.label;
      row.path = q.text;
      row.books = books;
      row.doc_nodes = stored->doc().num_nodes();
      row.result_values = got.size();
      row.virtual_ms = bench::MedianMs(
          reps, [&] { ExecuteAndRender(view_engine, q.text); });

      std::shared_ptr<const xml::Document> materialized;
      row.materialize_ms = bench::MedianMs(reps, [&] {
        auto m = virt::Materialize(**vdoc);
        materialized = std::make_shared<const xml::Document>(std::move(m->doc));
      });
      volatile size_t sink = 0;
      row.renumber_ms = bench::MedianMs(reps, [&] {
        auto n = num::Numbering::Number(*materialized);
        sink = sink + n.size();
      });
      const query::QueryEngine after_engine(materialized);
      row.query_after_ms = bench::MedianMs(
          reps, [&] { ExecuteAndRender(after_engine, q.text); });

      table.AddRow({std::to_string(books), std::to_string(row.doc_nodes),
                    std::to_string(row.result_values), Fmt(row.virtual_ms),
                    Fmt(row.materialize_ms), Fmt(row.renumber_ms),
                    Fmt(row.query_after_ms), Fmt(row.baseline_total_ms()),
                    Fmt(row.baseline_total_ms() / row.virtual_ms, 1) + "x"});
      rows.push_back(row);
    }
    table.Print();
  }
  std::printf(
      "\nExpected shape: on the selective query the virtual strategy wins"
      " by a factor that\ngrows with document size (it virtually transforms"
      " only the data the query needs,\n§4.3); on the full scan the two"
      " converge, since every node is needed either way.\n");

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"experiment\": \"e3_query_vs_materialize\",\n"
               "  \"view\": \"%s\",\n  \"hw_threads\": %u,\n"
               "  \"identical\": true,\n  \"rows\": [",
               kSpec, std::thread::hardware_concurrency());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "%s\n    {\"query\": \"%s\", \"path\": \"%s\", \"books\": %d, "
                 "\"doc_nodes\": %zu, \"values\": %zu, "
                 "\"virtual_ms\": %.4f, \"materialize_ms\": %.4f, "
                 "\"renumber_ms\": %.4f, \"query_after_ms\": %.4f, "
                 "\"baseline_total_ms\": %.4f}",
                 i == 0 ? "" : ",", r.query.c_str(), JsonEscape(r.path).c_str(),
                 r.books,
                 r.doc_nodes, r.result_values, r.virtual_ms,
                 r.materialize_ms, r.renumber_ms, r.query_after_ms,
                 r.baseline_total_ms());
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  return 0;
}
