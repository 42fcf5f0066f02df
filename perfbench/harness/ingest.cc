/// \file ingest.cc
/// \brief The `ingest` phase: repeated cold starts of an auctions document.
///
/// One cycle: XML text -> xml::Parse -> StoredDocument::Build -> first
/// answers (one stored query, then the view opened and one view query);
/// Snapshot::WriteFile; the file's pages evicted from the page cache;
/// Snapshot::LoadFile (mmap) -> first answers again. The snapshot path's
/// answers must equal the XML path's.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/mmap_file.h"
#include "stats.h"
#include "storage/snapshot.h"
#include "storage/stored_document.h"
#include "workload/auctions.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace perfbench {

namespace {

using vpbn::query::QueryEngine;
using vpbn::storage::Snapshot;
using vpbn::storage::StoredDocument;

constexpr char kViewSpec[] = "auction { itemref bidder { price } }";
constexpr char kStoredQuery[] = "//auction[bidder/price > 120]/itemref";
constexpr char kViewQuery[] = "//bidder/price";

/// workload::ScaledAuctions factors: 0.5 is about 200k nodes, 0.15 about
/// 60k.
constexpr double kPrimaryScale = 0.5;
constexpr double kShortScale = 0.15;
constexpr int kSetups = 9;

/// Both first answers of a freshly ingested document.
struct FirstAnswers {
  bool ok = false;
  std::vector<std::string> stored_values;
  std::vector<std::string> view_values;
  double view_open_ms = 0;
  double first_query_ms = 0;  ///< the stored query, prepare to render
  double total_ms = 0;        ///< both queries and the view open
};

FirstAnswers Answer2(Run* run, std::shared_ptr<const StoredDocument> stored,
                     uint64_t request, uint64_t parent) {
  FirstAnswers out;
  QueryEngine stored_engine(stored);
  Answer a =
      AnswerQuery(run, stored_engine, kStoredQuery, request, parent, {}, true);
  out.first_query_ms = a.total_ms();

  ScopedSpan open_span(&run->tracer, "vpbn.Open", request, parent);
  auto vdoc = vpbn::virt::VirtualDocument::OpenShared(stored, kViewSpec);
  out.view_open_ms = open_span.Stop();
  if (!a.ok || !vdoc.ok()) return out;
  QueryEngine view_engine(*vdoc);
  Answer b =
      AnswerQuery(run, view_engine, kViewQuery, request, parent, {}, true);
  out.ok = b.ok;
  out.total_ms = a.total_ms() + out.view_open_ms + b.total_ms();
  out.stored_values = std::move(a.values);
  out.view_values = std::move(b.values);
  return out;
}

class IngestPhase : public Phase {
 public:
  IngestPhase(Run* run, bool primary) : run_(run), primary_(primary) {}

  bool Prepare() override;
  void Measure(double seconds) override;
  void Finish() override;

 private:
  /// One cold start from XML, snapshot write, and cold start from the
  /// evicted snapshot.
  void Cycle();

  Run* const run_;
  const bool primary_;
  std::string xml_text_;
  std::string path_;
  int cycles_ = 0;
  RoundSeries xml_first_ms_, snap_first_ms_, write_ms_;
  std::vector<double> parse_ms_, build_ms_, encode_ms_, file_ms_, load_ms_,
      open_ms_, first_query_ms_, faulted_;
  double snapshot_bytes_ = 0, memory_bytes_ = 0;
};

bool IngestPhase::Prepare() {
  Report& report = run_->report;
  xml_text_ = vpbn::xml::SerializeDocument(
      vpbn::workload::GenerateAuctionsChunked(
          vpbn::workload::ScaledAuctions(primary_ ? kPrimaryScale : kShortScale,
                                         run_->StreamSeed("ingest.corpus")),
          100000));
  path_ = run_->work_dir + "/ingest.vpsn";

  // --- Set-up: parse + build + view open, the state a cold start reaches --
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t t0 = NowNs();
    auto parsed = vpbn::xml::Parse(xml_text_);
    if (!parsed.ok()) {
      report.Fail("ingest: parse: " + parsed.status().ToString());
      return false;
    }
    auto stored = std::make_shared<const StoredDocument>(
        StoredDocument::Build(std::move(*parsed)));
    auto vdoc = vpbn::virt::VirtualDocument::OpenShared(stored, kViewSpec);
    setup_s.push_back(MsSince(t0) / 1000);
    if (!vdoc.ok()) {
      report.Fail("ingest: view open: " + vdoc.status().ToString());
      return false;
    }
    if (i == 0) {
      // Correctness gate: the XML path's first answers against the oracle.
      report.Attempt();
      FirstAnswers first = Answer2(run_, stored, 0, 0);
      auto materialized = vpbn::virt::Materialize(**vdoc);
      auto want_stored = NavStoredValues(stored->doc(), kStoredQuery);
      bool same = first.ok && materialized.ok() && want_stored.ok() &&
                  first.stored_values == *want_stored;
      if (same) {
        auto want_view = NavViewValues(*materialized, kViewQuery);
        same = want_view.ok() && first.view_values == *want_view;
      }
      if (!same) report.Fail("ingest: first answers differ from the oracle");
    }
  }
  if (primary_) report.Set("setup_s", Median(setup_s), "s");
  return true;
}

void IngestPhase::Measure(double seconds) {
  xml_first_ms_.StartRound();
  snap_first_ms_.StartRound();
  write_ms_.StartRound();
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  run_->tracer.set_enabled(run_->traced);
  do {
    Cycle();
  } while (NowNs() < deadline);
  run_->tracer.set_enabled(false);
}

void IngestPhase::Cycle() {
  Report& report = run_->report;
  Tracer* tracer = &run_->tracer;
  const uint64_t request = static_cast<uint64_t>(++cycles_);
  report.Attempt();
  ScopedSpan root(tracer, "bench.cycle", request);

  // XML text -> first answers: the sum of the chain's calls.
  ScopedSpan parse_span(tracer, "xml.Parse", request, root.id());
  auto parsed = vpbn::xml::Parse(xml_text_);
  const double parse_ms = parse_span.Stop();
  if (!parsed.ok()) {
    report.Fail("ingest: parse");
    return;
  }
  ScopedSpan build_span(tracer, "storage.Build", request, root.id());
  auto stored = std::make_shared<const StoredDocument>(
      StoredDocument::Build(std::move(*parsed)));
  const double build_ms = build_span.Stop();
  FirstAnswers from_xml = Answer2(run_, stored, request, root.id());
  parse_ms_.push_back(parse_ms);
  build_ms_.push_back(build_ms);
  xml_first_ms_.Add(parse_ms + build_ms + from_xml.total_ms);
  open_ms_.push_back(from_xml.view_open_ms);
  memory_bytes_ = static_cast<double>(stored->MemoryUsage());

  // Snapshot write. Traced runs also time its two parts on their own: the
  // in-memory encode, and the encoded bytes written to a file the way
  // WriteFile writes them.
  if (run_->traced) {
    ScopedSpan encode_span(tracer, "storage.Snapshot.Write", request,
                           root.id());
    const std::string bytes = Snapshot::Write(*stored);
    encode_ms_.push_back(encode_span.Stop());
    ScopedSpan file_span(tracer, "storage.file", request, root.id());
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.close();
    file_ms_.push_back(file_span.Stop());
    if (!f) report.Fail("ingest: file write");
  }
  ScopedSpan write_span(tracer, "storage.Snapshot.WriteFile", request,
                        root.id());
  const vpbn::Status written = Snapshot::WriteFile(*stored, path_);
  write_ms_.Add(write_span.Stop());
  stored.reset();
  if (!written.ok()) {
    report.Fail("ingest: snapshot write: " + written.ToString());
    return;
  }
  {
    auto mapped = vpbn::common::MappedFile::Open(path_);
    if (mapped.ok()) {
      snapshot_bytes_ = static_cast<double>((*mapped)->size());
      (*mapped)->EvictPages();
    }
  }

  // Evicted snapshot file -> first answers.
  ScopedSpan load_span(tracer, "storage.Snapshot.LoadFile", request,
                       root.id());
  auto loaded = Snapshot::LoadFile(path_);
  const double load_ms = load_span.Stop();
  if (!loaded.ok()) {
    report.Fail("ingest: snapshot load: " + loaded.status().ToString());
    return;
  }
  auto restored = std::make_shared<const StoredDocument>(std::move(*loaded));
  FirstAnswers from_snapshot = Answer2(run_, restored, request, root.id());
  root.Stop();
  load_ms_.push_back(load_ms);
  snap_first_ms_.Add(load_ms + from_snapshot.total_ms);
  open_ms_.push_back(from_snapshot.view_open_ms);
  first_query_ms_.push_back(from_snapshot.first_query_ms);
  faulted_.push_back(static_cast<double>(restored->resident_mapped_bytes()));

  if (!from_xml.ok || !from_snapshot.ok ||
      from_xml.stored_values != from_snapshot.stored_values ||
      from_xml.view_values != from_snapshot.view_values) {
    report.Fail("ingest: snapshot answers differ from XML-built answers");
  }
}

void IngestPhase::Finish() {
  Report& report = run_->report;
  std::remove(path_.c_str());
  const double xml_bytes = static_cast<double>(xml_text_.size());
  report.Detail(
      "ingest",
      "{\"primary\":" + std::string(primary_ ? "true" : "false") +
          ",\"xml_bytes\":" + std::to_string(xml_text_.size()) +
          ",\"snapshot_bytes\":" + std::to_string(snapshot_bytes_) +
          ",\"cycles\":" + std::to_string(cycles_) +
          ",\"xml_first_answer_ms_by_round\":" +
          JsonNumberList(xml_first_ms_.RoundMedians()) + "}");

  if (!run_->traced) {
    report.Set("xml_first_answer_ms", xml_first_ms_.BusyQuartile(), "ms");
    report.Set("snapshot_first_answer_ms", snap_first_ms_.BusyQuartile(),
               "ms");
    report.Set("snapshot_write_ms", write_ms_.BusyQuartile(), "ms");
    report.Set("snapshot_bytes_ratio", snapshot_bytes_ / xml_bytes, "ratio");
    report.Set("memory_bytes_ratio", memory_bytes_ / xml_bytes, "ratio");
    return;
  }
  const double parse = Median(parse_ms_);

  report.Set("xml.parse_ms", parse, "ms");
  report.Set("xml.parse_mb_per_s", parse > 0 ? xml_bytes / 1e3 / parse : 0,
             "MB/s");
  report.Set("storage.build_ms", Median(build_ms_), "ms");
  report.Set("storage.snapshot_encode_ms", Median(encode_ms_), "ms");
  report.Set("storage.snapshot_file_ms", Median(file_ms_), "ms");
  report.Set("storage.snapshot_load_ms", Median(load_ms_), "ms");
  report.Set("storage.first_query_cold_ms", Median(first_query_ms_), "ms");
  report.Set("storage.faulted_bytes", Median(faulted_), "bytes");
  report.Set("vpbn.view_open_ms", Median(open_ms_), "ms");
}

}  // namespace

std::unique_ptr<Phase> MakeIngest(Run* run, bool primary) {
  return std::make_unique<IngestPhase>(run, primary);
}

}  // namespace perfbench
