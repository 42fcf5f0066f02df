/// \file vpbnq.cc
/// \brief Command-line front end: query XML files physically or through a
/// virtual hierarchy, inspect DataGuides, materialize views, run XQuery.
///
///   vpbnq <file.xml> <xpath>                  query with PBN indexes
///   vpbnq --view <spec> <file.xml> <xpath>    query a virtual hierarchy
///   vpbnq --materialize <spec> <file.xml>     print the transformed doc
///   vpbnq --dataguide <file.xml>              print the structural summary
///   vpbnq --xquery <query> <file.xml>         run FLWR (doc name: "doc")
///   vpbnq --numbers <file.xml>                dump PBN numbers
///   vpbnq --save-snapshot <snap> <file.xml>   build + persist a full-index
///                                             snapshot (also valid alongside
///                                             a query)
///   vpbnq --load-snapshot <snap> <xpath>      query straight from a snapshot
///                                             (no parse / renumber / index)
///
/// Query modes go through query::QueryEngine (prepare once, execute once),
/// so `--threads N` runs the parallel engine, `--stats` prints the
/// per-query ExecStats, and `--json <file>` writes them as one JSON object.

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "query/engine.h"
#include "storage/snapshot.h"
#include "vdg/report.h"
#include "vpbn/materializer.h"
#include "vpbn/virtual_document.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/xq_engine.h"

namespace {

using namespace vpbn;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  vpbnq [--threads N] [--stats] [--json <file>] "
               "<file.xml> <xpath>\n"
               "  vpbnq [--threads N] [--stats] [--json <file>] --view "
               "<vdataguide> <file.xml> <xpath>\n"
               "  vpbnq --materialize <vdataguide> <file.xml>\n"
               "  vpbnq --report <vdataguide> <file.xml>\n"
               "  vpbnq --dataguide <file.xml>\n"
               "  vpbnq --numbers <file.xml>\n"
               "  vpbnq --xquery <query> <file.xml>\n"
               "  vpbnq --save-snapshot <snap> <file.xml> [<xpath>]\n"
               "  vpbnq --load-snapshot [--no-mmap] [--threads N] [--stats] "
               "[--json <file>] <snap> <xpath>\n");
  return 2;
}

Result<xml::Document> Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return xml::Parse(buf.str());
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Dump one Execute call's ExecStats as a single JSON object (the --json
/// flag), so harnesses can diff counters across runs without scraping the
/// human-readable stderr dump. The serialization is ExecStats::ToJson — the
/// same object vpbnd's STATS endpoint and the E14 driver emit.
int WriteStatsJson(const std::string& path, const query::ExecStats& stats) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return 1;
  }
  std::string json = stats.ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return 0;
}

/// Prepare, execute and print one query through the engine facade.
int RunQuery(const query::QueryEngine& engine, const std::string& path_text,
             const query::ExecOverrides& overrides,
             const std::string& json_path) {
  auto prepared = engine.Prepare(path_text);
  if (!prepared.ok()) return Fail(prepared.status());
  auto result = engine.Execute(*prepared, overrides);
  if (!result.ok()) return Fail(result.status());
  // Views point into the stored string for stored / intact-virtual results,
  // so printing a large result set never copies the values.
  std::deque<std::string> owned;
  for (std::string_view value : engine.StringValueViews(*result, &owned)) {
    std::fwrite(value.data(), 1, value.size(), stdout);
    std::fputc('\n', stdout);
  }
  std::fprintf(stderr, "%zu node(s)\n", result->size());
  if (overrides.collect_stats.value_or(false)) {
    std::fprintf(stderr, "%s", result->stats().ToString().c_str());
  }
  if (!json_path.empty()) {
    return WriteStatsJson(json_path, result->stats());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  // Engine options may precede or follow the mode flag. They collect into
  // an ExecOverrides: unset knobs fall through to the engine defaults.
  query::ExecOverrides exec_overrides;
  bool load_snapshot = false;
  bool use_mmap = true;
  std::string json_path;
  std::string save_snapshot;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--threads" && std::next(it) != args.end()) {
      exec_overrides.threads = std::atoi(std::next(it)->c_str());
      it = args.erase(it, it + 2);
    } else if (*it == "--stats") {
      exec_overrides.collect_stats = true;
      it = args.erase(it);
    } else if (*it == "--json" && std::next(it) != args.end()) {
      json_path = *std::next(it);
      exec_overrides.collect_stats = true;  // the dump needs the counters
      it = args.erase(it, it + 2);
    } else if (*it == "--save-snapshot" && std::next(it) != args.end()) {
      save_snapshot = *std::next(it);
      it = args.erase(it, it + 2);
    } else if (*it == "--load-snapshot") {
      load_snapshot = true;
      it = args.erase(it);
    } else if (*it == "--mmap") {
      use_mmap = true;
      it = args.erase(it);
    } else if (*it == "--no-mmap") {
      use_mmap = false;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (args.empty()) return Usage();

  if (args[0] == "--dataguide" && args.size() == 2) {
    auto doc = Load(args[1]);
    if (!doc.ok()) return Fail(doc.status());
    dg::DataGuide g = dg::DataGuide::Build(*doc);
    for (dg::TypeId t : g.PreOrder()) {
      std::printf("%*s%s\n", 2 * (g.length(t) - 1), "",
                  g.label(t).c_str());
    }
    return 0;
  }

  if (args[0] == "--numbers" && args.size() == 2) {
    auto doc = Load(args[1]);
    if (!doc.ok()) return Fail(doc.status());
    num::Numbering n = num::Numbering::Number(*doc);
    for (xml::NodeId id : doc->DocumentOrder()) {
      std::printf("%-16s %s\n", n.OfNode(id).ToString().c_str(),
                  doc->IsText(id)
                      ? ("\"" + doc->text(id) + "\"").c_str()
                      : doc->name(id).c_str());
    }
    return 0;
  }

  if (args[0] == "--report" && args.size() == 3) {
    auto doc = Load(args[2]);
    if (!doc.ok()) return Fail(doc.status());
    dg::DataGuide guide = dg::DataGuide::Build(*doc);
    auto vg = vdg::VDataGuide::Create(args[1], guide);
    if (!vg.ok()) return Fail(vg.status());
    vdg::ViewReport report = vdg::AnalyzeView(*vg);
    std::printf("%s", report.ToString(*vg).c_str());
    return 0;
  }

  if (args[0] == "--materialize" && args.size() == 3) {
    auto doc = Load(args[2]);
    if (!doc.ok()) return Fail(doc.status());
    storage::StoredDocument stored =
        storage::StoredDocument::Build(std::move(*doc));
    auto vdoc = virt::VirtualDocument::Open(stored, args[1]);
    if (!vdoc.ok()) return Fail(vdoc.status());
    auto m = virt::Materialize(*vdoc);
    if (!m.ok()) return Fail(m.status());
    std::printf("%s\n",
                xml::SerializeDocument(m->doc, {.indent = true}).c_str());
    return 0;
  }

  if (args[0] == "--xquery" && args.size() == 3) {
    auto doc = Load(args[2]);
    if (!doc.ok()) return Fail(doc.status());
    xq::Engine engine;
    if (auto s = engine.RegisterDocument("doc", &*doc); !s.ok()) {
      return Fail(s);
    }
    auto out = engine.RunToXml(args[1]);
    if (!out.ok()) return Fail(out.status());
    std::printf("%s\n", out->c_str());
    return 0;
  }

  if (args[0] == "--view" && args.size() == 4) {
    auto doc = Load(args[2]);
    if (!doc.ok()) return Fail(doc.status());
    auto stored = std::make_shared<const storage::StoredDocument>(
        storage::StoredDocument::Build(std::move(*doc)));
    auto vdoc = virt::VirtualDocument::OpenShared(stored, args[1]);
    if (!vdoc.ok()) return Fail(vdoc.status());
    query::QueryEngine engine(*vdoc);
    return RunQuery(engine, args[3], exec_overrides, json_path);
  }

  // Build-and-persist only: vpbnq --save-snapshot out.snap file.xml
  if (!save_snapshot.empty() && args.size() == 1 && args[0][0] != '-') {
    auto doc = Load(args[0]);
    if (!doc.ok()) return Fail(doc.status());
    storage::StoredDocument stored =
        storage::StoredDocument::Build(std::move(*doc));
    if (auto s = storage::Snapshot::WriteFile(stored, save_snapshot);
        !s.ok()) {
      return Fail(s);
    }
    std::fprintf(stderr, "snapshot written: %s\n", save_snapshot.c_str());
    return 0;
  }

  if (args.size() == 2 && args[0][0] != '-') {
    storage::StoredDocument built;
    if (load_snapshot) {
      auto loaded =
          storage::Snapshot::LoadFile(args[0], nullptr, use_mmap);
      if (!loaded.ok()) return Fail(loaded.status());
      built = std::move(*loaded);
    } else {
      auto doc = Load(args[0]);
      if (!doc.ok()) return Fail(doc.status());
      built = storage::StoredDocument::Build(std::move(*doc));
    }
    if (!save_snapshot.empty()) {
      if (auto s = storage::Snapshot::WriteFile(built, save_snapshot);
          !s.ok()) {
        return Fail(s);
      }
      std::fprintf(stderr, "snapshot written: %s\n", save_snapshot.c_str());
    }
    auto stored = std::make_shared<const storage::StoredDocument>(
        std::move(built));
    query::QueryEngine engine(stored);
    return RunQuery(engine, args[1], exec_overrides, json_path);
  }

  return Usage();
}
