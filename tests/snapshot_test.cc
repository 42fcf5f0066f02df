#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "query/engine.h"
#include "tests/test_util.h"
#include "vpbn/virtual_document.h"
#include "workload/auctions.h"
#include "workload/books.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace vpbn::storage {
namespace {

using num::Pbn;

xml::Document AuctionsDoc(int items = 20, int people = 15,
                          int auctions = 40) {
  workload::AuctionsOptions opts;
  opts.num_items = items;
  opts.num_people = people;
  opts.num_auctions = auctions;
  return workload::GenerateAuctions(opts);
}

TEST(SnapshotTest, RoundTripPaperFigure2) {
  xml::Document doc = testutil::PaperFigure2();
  StoredDocument built = StoredDocument::Build(doc);
  auto loaded = Snapshot::Load(Snapshot::Write(built));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->from_snapshot());
  EXPECT_EQ(loaded->stored_string(), built.stored_string());
  EXPECT_EQ(xml::SerializeDocument(loaded->doc()),
            xml::SerializeDocument(doc));
  // Numbering, guide, and values all survive.
  ASSERT_EQ(loaded->numbering().size(), built.numbering().size());
  for (xml::NodeId id = 0; id < doc.num_nodes(); ++id) {
    EXPECT_EQ(loaded->numbering().OfNode(id), built.numbering().OfNode(id));
    EXPECT_EQ(loaded->TypeOfNode(id), built.TypeOfNode(id));
  }
  ASSERT_EQ(loaded->dataguide().num_types(), built.dataguide().num_types());
  for (dg::TypeId t = 0; t < built.dataguide().num_types(); ++t) {
    EXPECT_EQ(loaded->dataguide().path(t), built.dataguide().path(t));
  }
  EXPECT_EQ(loaded->Value(testutil::NodeAt(doc, Pbn{1, 1, 2})),
            "<author><name>C</name></author>");
}

TEST(SnapshotTest, RoundTripEmptyDocument) {
  xml::Document doc;
  StoredDocument built = StoredDocument::Build(doc);
  auto loaded = Snapshot::Load(Snapshot::Write(built));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->doc().num_nodes(), 0u);
}

TEST(SnapshotTest, WriteIsDeterministicAndStableAcrossRoundTrip) {
  xml::Document doc = AuctionsDoc();
  std::string a = Snapshot::Write(StoredDocument::Build(doc));
  std::string b = Snapshot::Write(StoredDocument::Build(doc));
  EXPECT_EQ(a, b);
  auto loaded = Snapshot::Load(a);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // Re-snapshotting the loaded document reproduces the same bytes: nothing
  // is lost or reordered by the round trip.
  EXPECT_EQ(Snapshot::Write(*loaded), a);
}

// The satellite property test: a StoredDocument loaded from a snapshot
// answers every query byte-identically to one built from XML, across all
// three substrates.
TEST(SnapshotTest, LoadedDocumentAnswersQueriesIdentically) {
  xml::Document doc = AuctionsDoc();
  auto built = std::make_shared<const StoredDocument>(
      StoredDocument::Build(doc));
  auto loaded_result = Snapshot::Load(Snapshot::Write(*built));
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status();
  auto loaded = std::make_shared<const StoredDocument>(
      std::move(*loaded_result));

  const char* kSpec = "auction { itemref bidder { personref price } }";
  auto built_vdoc = virt::VirtualDocument::OpenShared(built, kSpec);
  auto loaded_vdoc = virt::VirtualDocument::OpenShared(loaded, kSpec);
  ASSERT_TRUE(built_vdoc.ok()) << built_vdoc.status();
  ASSERT_TRUE(loaded_vdoc.ok()) << loaded_vdoc.status();

  const char* kQueries[] = {
      "//auction//price",
      "//auction/bidder/price",
      "//auction[bidder/price > 120]",
      "//item[quantity >= 4]/name",
      "//person/name",
      "//bidder[personref]",
  };

  // Stored substrate (bulk/indexed plans) and the navigational substrate
  // over the loaded document's own copy of the tree. The navigational
  // documents are owned by this frame / by `loaded`, so the engines get
  // non-owning aliasing pointers.
  query::QueryEngine built_stored(built);
  query::QueryEngine loaded_stored(loaded);
  query::QueryEngine built_nav(std::shared_ptr<const xml::Document>(
      std::shared_ptr<const void>(), &doc));
  query::QueryEngine loaded_nav(
      std::shared_ptr<const xml::Document>(loaded, &loaded->doc()));
  query::QueryEngine built_virtual(*built_vdoc);
  query::QueryEngine loaded_virtual(*loaded_vdoc);

  struct Pair {
    const query::QueryEngine* built;
    const query::QueryEngine* loaded;
  };
  const Pair pairs[] = {{&built_stored, &loaded_stored},
                        {&built_nav, &loaded_nav},
                        {&built_virtual, &loaded_virtual}};

  for (const char* q : kQueries) {
    for (const Pair& pair : pairs) {
      auto want = pair.built->Execute(q);
      auto got = pair.loaded->Execute(q);
      ASSERT_TRUE(want.ok()) << q << ": " << want.status();
      ASSERT_TRUE(got.ok()) << q << ": " << got.status();
      EXPECT_EQ(pair.loaded->StringValues(*got),
                pair.built->StringValues(*want))
          << q;
    }
  }
}

// A snapshot-loaded document keeps its numbers in the packed arenas:
// stored queries, their rendered values and the memory report must all
// leave the heap numbering unhydrated, so only an explicit numbering() call
// grows the report by the numbers it materializes.
TEST(SnapshotTest, StoredQueriesAndMemoryUsageDoNotHydrateTheNumbering) {
  workload::BooksOptions opts;
  opts.num_books = 200;
  xml::Document doc = workload::GenerateBooks(opts);
  const StoredDocument built = StoredDocument::Build(doc);
  auto loaded = Snapshot::Load(Snapshot::Write(built));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto stored = std::make_shared<const StoredDocument>(std::move(*loaded));

  query::QueryEngine engine(stored);
  auto r = engine.Execute("//book/title");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_FALSE(r->node_ids().empty());
  std::vector<std::string> values = engine.StringValues(*r);
  ASSERT_EQ(values.size(), r->size());
  EXPECT_EQ(values[0], built.Value(r->node_ids()[0]));
  const size_t m1 = stored->MemoryUsage();

  const size_t hydrated = stored->numbering().NumbersMemoryUsage();
  const size_t m2 = stored->MemoryUsage();
  // Hydration also decodes every arena the query left lazy, so the report
  // grows by at least the numbers: one Pbn slot per node, as in the built
  // document's column, plus each number's components.
  EXPECT_GE(m2 - m1, hydrated);
  EXPECT_GT(hydrated, built.numbering().size() * sizeof(num::Pbn));
}

TEST(SnapshotTest, ViewQueriesDoNotHydrateTheNumbering) {
  const xml::Document doc = AuctionsDoc(/*items=*/30, /*people=*/20,
                                        /*auctions=*/60);
  const char* kSpec = "auction { itemref bidder { price } }";
  auto built = std::make_shared<const StoredDocument>(
      StoredDocument::Build(doc));
  auto loaded = Snapshot::Load(Snapshot::Write(*built));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto stored = std::make_shared<const StoredDocument>(std::move(*loaded));
  auto view = virt::VirtualDocument::OpenShared(stored, kSpec);
  ASSERT_TRUE(view.ok()) << view.status();
  auto built_view = virt::VirtualDocument::OpenShared(built, kSpec);
  ASSERT_TRUE(built_view.ok()) << built_view.status();

  // Child merges, a descendant merge, a value predicate (the bidder values
  // are assembled through RelatedInstances: the view drops bidder's other
  // children), the parent axis and the sibling axis — every view path that
  // reads a node's number.
  query::QueryEngine engine(*view);
  query::QueryEngine reference(*built_view);
  for (const char* path :
       {"//bidder/price", "//auction//price", "//bidder[price > 120]",
        "//price/..", "//bidder/following-sibling::bidder"}) {
    auto r = engine.Execute(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status();
    EXPECT_GT(r->size(), 0u) << path;
    auto want = reference.Execute(path);
    ASSERT_TRUE(want.ok()) << path << ": " << want.status();
    EXPECT_EQ(engine.StringValues(*r), reference.StringValues(*want)) << path;
  }
  const size_t m1 = stored->MemoryUsage();
  const size_t hydrated = stored->numbering().NumbersMemoryUsage();
  const size_t m2 = stored->MemoryUsage();
  EXPECT_GE(m2 - m1, hydrated);
  EXPECT_GT(hydrated, 0u);
}

TEST(SnapshotTest, LoadedDocumentOwnsItsTree) {
  StoredDocument loaded;
  {
    xml::Document doc = testutil::PaperFigure2();
    auto r = Snapshot::Load(Snapshot::Write(StoredDocument::Build(doc)));
    ASSERT_TRUE(r.ok());
    loaded = std::move(*r);
    // `doc` dies here; `loaded` must not reference it.
  }
  EXPECT_GT(loaded.doc().num_nodes(), 0u);
  EXPECT_TRUE(loaded.from_snapshot());
  EXPECT_GE(loaded.ingest_ms(), 0.0);
  EXPECT_EQ(loaded.Value(testutil::NodeAt(loaded.doc(), Pbn{1, 1, 2})),
            "<author><name>C</name></author>");
}

TEST(SnapshotTest, OwningBuildKeepsDocumentAlive) {
  StoredDocument stored;
  {
    xml::Document doc = testutil::PaperFigure2();
    stored = StoredDocument::Build(std::move(doc));
  }
  EXPECT_GT(stored.doc().num_nodes(), 0u);
  EXPECT_FALSE(stored.from_snapshot());
  const xml::NodeId author = testutil::NodeAt(stored.doc(), Pbn{1, 1, 2});
  EXPECT_EQ(stored.Value(author), "<author><name>C</name></author>");
  // Moves carry the owned document along.
  StoredDocument moved = std::move(stored);
  EXPECT_EQ(moved.Value(author), "<author><name>C</name></author>");
}

TEST(SnapshotTest, RejectsBadMagicAndVersion) {
  EXPECT_TRUE(Snapshot::Load("").status().IsInvalidArgument());
  EXPECT_TRUE(Snapshot::Load("XXXX").status().IsInvalidArgument());
  EXPECT_TRUE(Snapshot::Load("VPSN").status().IsInvalidArgument());
  xml::Document doc = testutil::PaperFigure2();
  std::string snap = Snapshot::Write(StoredDocument::Build(doc));
  std::string bad_version = snap;
  bad_version[4] = 99;  // version byte
  EXPECT_TRUE(Snapshot::Load(bad_version).status().IsInvalidArgument());
}

TEST(SnapshotTest, RejectsTrailingGarbage) {
  xml::Document doc = testutil::PaperFigure2();
  std::string snap = Snapshot::Write(StoredDocument::Build(doc)) + "junk";
  EXPECT_TRUE(Snapshot::Load(snap).status().IsInvalidArgument());
}

TEST(SnapshotTest, RejectsEveryTruncation) {
  xml::Document doc = testutil::PaperFigure2();
  std::string snap = Snapshot::Write(StoredDocument::Build(doc));
  for (size_t cut = 0; cut < snap.size(); ++cut) {
    auto r = Snapshot::Load(std::string_view(snap).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsInvalidArgument()) << "cut at " << cut;
    }
  }
}

TEST(SnapshotTest, FuzzRandomMutationsNeverCrash) {
  xml::Document doc = testutil::PaperFigure2();
  std::string snap = Snapshot::Write(StoredDocument::Build(doc));
  Rng rng(2025);
  for (int i = 0; i < 500; ++i) {
    std::string mutated = snap;
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    auto r = Snapshot::Load(mutated);  // must not crash; may fail or succeed
    if (r.ok()) {
      // If it loads, the result must be internally consistent enough to
      // serialize and re-snapshot without tripping any invariant.
      std::string again = Snapshot::Write(*r);
      EXPECT_FALSE(again.empty());
    }
  }
}

TEST(SnapshotTest, FuzzMutatedLargerSnapshotNeverCrashes) {
  // A larger snapshot exercises the packed arenas and value columns, the
  // sections with the most derived state to validate.
  xml::Document doc = AuctionsDoc();
  std::string snap = Snapshot::Write(StoredDocument::Build(doc));
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    std::string mutated = snap;
    int flips = 1 + static_cast<int>(rng.Uniform(8));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    auto r = Snapshot::Load(mutated);
    if (r.ok()) {
      EXPECT_GE(r->doc().num_nodes(), 0u);
    }
  }
}

TEST(SnapshotTest, FileRoundTrip) {
  xml::Document doc = testutil::PaperFigure2();
  StoredDocument built = StoredDocument::Build(doc);
  std::string path = ::testing::TempDir() + "/snapshot_test.vpsn";
  ASSERT_TRUE(Snapshot::WriteFile(built, path).ok());
  auto loaded = Snapshot::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->stored_string(), built.stored_string());
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadFileOfMissingPathFails) {
  auto r = Snapshot::LoadFile("/nonexistent/snapshot.vpsn");
  EXPECT_FALSE(r.ok());
}

// ---- Version 2 format ----

/// The bytes of a checked-in file under tests/data.
std::string TestData(const std::string& name) {
  std::ifstream in(std::string(VPBN_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// A fresh build of tests/data/books.xml, the source of books_v1.vpsn.
StoredDocument BuildBooksXml() {
  auto doc = xml::Parse(TestData("books.xml"));
  EXPECT_TRUE(doc.ok()) << doc.status();
  return StoredDocument::Build(std::move(*doc));
}

TEST(SnapshotV2Test, WriteEmitsVersion2) {
  xml::Document doc = testutil::PaperFigure2();
  StoredDocument built = StoredDocument::Build(doc);
  for (bool stats_section : {true, false}) {
    std::string v2 = Snapshot::Write(built, stats_section);
    ASSERT_GE(v2.size(), 5u);
    EXPECT_EQ(v2.substr(0, 4), "VPSN");
    EXPECT_EQ(static_cast<uint8_t>(v2[4]), 2);
  }
}

TEST(SnapshotV2Test, V1SnapshotsStillLoad) {
  // The checked-in v1 file restores the document a fresh build of its
  // source gives, node for node.
  auto from_v1 = Snapshot::Load(TestData("books_v1.vpsn"));
  ASSERT_TRUE(from_v1.ok()) << from_v1.status();
  StoredDocument built = BuildBooksXml();
  EXPECT_EQ(from_v1->stored_string(), built.stored_string());
  ASSERT_EQ(from_v1->doc().num_nodes(), built.doc().num_nodes());
  ASSERT_EQ(from_v1->numbering().size(), built.numbering().size());
  for (xml::NodeId id = 0; id < built.doc().num_nodes(); ++id) {
    ASSERT_EQ(from_v1->numbering().OfNode(id), built.numbering().OfNode(id));
    ASSERT_EQ(from_v1->TypeOfNode(id), built.TypeOfNode(id));
    ASSERT_EQ(from_v1->RowOfNode(id), built.RowOfNode(id));
    ASSERT_EQ(from_v1->Value(id), built.Value(id));
  }
  // The restored document re-snapshots to the fresh build's v2 bytes.
  EXPECT_EQ(Snapshot::Write(*from_v1), Snapshot::Write(built));
}

TEST(SnapshotV2Test, CheckedInV1FixtureLoads) {
  // A v1 file written by the previous format generation, checked in so a
  // format change that breaks old files fails here rather than in the
  // field. Nothing writes v1 any more, so it cannot be regenerated.
  std::string path = std::string(VPBN_TEST_DATA_DIR) + "/books_v1.vpsn";
  auto loaded = Snapshot::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->from_snapshot());
  EXPECT_EQ(loaded->snapshot_bytes(), 733u);
  EXPECT_EQ(loaded->mapped_bytes(), 0u);  // v1 loads copy out of the map
  auto engine = std::make_shared<const StoredDocument>(std::move(*loaded));
  query::QueryEngine q(engine);
  auto r = q.Execute("//book/title", {});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 2u);
}

TEST(SnapshotV2Test, CheckedInV2PartsFixtureLoads) {
  // A v2 file written by an older version, with a fifth section (kind 5,
  // partition metadata) that the loader accepts and ignores. Loading it
  // must give the document a fresh build gives, and re-writing it drops
  // the section. Regenerate never: no current writer emits kind 5.
  std::string dir = VPBN_TEST_DATA_DIR;
  auto loaded = Snapshot::LoadFile(dir + "/books_v2_parts.vpsn");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->snapshot_bytes(), 20506u);
  std::ifstream in(dir + "/books.xml", std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  auto doc = xml::Parse(text.str());
  ASSERT_TRUE(doc.ok()) << doc.status();
  StoredDocument fresh = StoredDocument::Build(std::move(*doc));
  EXPECT_EQ(Snapshot::Write(*loaded), Snapshot::Write(fresh));
  auto engine = std::make_shared<const StoredDocument>(std::move(*loaded));
  query::QueryEngine q(engine);
  auto r = q.Execute("//book/title", {});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 2u);
}

TEST(SnapshotV2Test, V2IsSmallerThanV1) {
  // v2 of the fixture's source encodes in fewer bytes than the v1 file.
  // Sections start on page boundaries (for mapped loads), so a document
  // this small is mostly padding; count the header, the directory and the
  // section payloads.
  std::string v2 = Snapshot::Write(BuildBooksXml());
  ASSERT_GE(v2.size(), 14u);
  size_t pos = 4 + 1 + 8;  // magic, version varint, checksum
  const size_t sections = static_cast<uint8_t>(v2[pos++]);
  size_t encoded = pos + sections * 17;
  for (size_t i = 0; i < sections; ++i, pos += 17) {
    for (size_t b = 0; b < 8; ++b) {  // u64 LE section size
      encoded += static_cast<size_t>(static_cast<uint8_t>(v2[pos + 9 + b]))
                 << (8 * b);
    }
  }
  EXPECT_LT(encoded, TestData("books_v1.vpsn").size());
  EXPECT_EQ(TestData("books_v1.vpsn").size(), 733u);
}

TEST(SnapshotV2Test, MmapLoadReportsMappedBytesAndMatchesCopyLoad) {
  xml::Document doc = AuctionsDoc();
  StoredDocument built = StoredDocument::Build(doc);
  std::string path = ::testing::TempDir() + "/snapshot_v2_mmap.vpsn";
  ASSERT_TRUE(Snapshot::WriteFile(built, path).ok());

  auto mapped = Snapshot::LoadFile(path, /*use_mmap=*/true);
  auto copied = Snapshot::LoadFile(path, /*use_mmap=*/false);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_TRUE(copied.ok()) << copied.status();
  EXPECT_GT(mapped->snapshot_bytes(), 0u);
  EXPECT_EQ(mapped->mapped_bytes(), mapped->snapshot_bytes());
  EXPECT_EQ(copied->mapped_bytes(), 0u);
  EXPECT_EQ(copied->snapshot_bytes(), mapped->snapshot_bytes());

  // Lazy arenas decode out of the mapping; a move must not invalidate the
  // views (the backing store moves along).
  StoredDocument moved = std::move(*mapped);
  for (dg::TypeId t = 0; t < moved.dataguide().num_types(); ++t) {
    const num::PackedPbnList& a = moved.PackedNodesOfType(t);
    const num::PackedPbnList& b = copied->PackedNodesOfType(t);
    ASSERT_EQ(a.size(), b.size()) << "type " << t;
    ASSERT_EQ(std::string_view(a.arena_data(), a.arena_bytes()),
              std::string_view(b.arena_data(), b.arena_bytes()))
        << "type " << t;
  }
  EXPECT_EQ(Snapshot::Write(moved), Snapshot::Write(*copied));
  std::remove(path.c_str());
}

TEST(SnapshotV2Test, EveryMutationFailsWithInvalidArgument) {
  // The v2 checksum covers every byte after the header field, and the
  // header itself is fully validated — so unlike v1 (where a flip in dead
  // padding could legitimately survive), *every* byte change to a v2
  // snapshot must be rejected, and always as InvalidArgument.
  xml::Document doc = testutil::PaperFigure2();
  std::string snap = Snapshot::Write(StoredDocument::Build(doc));
  Rng rng(20250809);
  for (int i = 0; i < 400; ++i) {
    std::string mutated = snap;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] =
        static_cast<char>(mutated[pos] ^ (1 + rng.Uniform(255)));
    auto r = Snapshot::Load(mutated);
    ASSERT_FALSE(r.ok()) << "flip at " << pos << " survived";
    EXPECT_TRUE(r.status().IsInvalidArgument())
        << "flip at " << pos << ": " << r.status();
  }
  // Exhaustively flip one bit in each of the first 64 bytes (magic,
  // version, checksum, directory) — the headers must be as tight as the
  // checksummed body.
  for (size_t pos = 0; pos < std::min<size_t>(64, snap.size()); ++pos) {
    std::string mutated = snap;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    auto r = Snapshot::Load(mutated);
    ASSERT_FALSE(r.ok()) << "bit flip at " << pos << " survived";
    EXPECT_TRUE(r.status().IsInvalidArgument()) << "bit flip at " << pos;
  }
}

TEST(SnapshotV2Test, EveryMutationOfLargeSnapshotFails) {
  xml::Document doc = AuctionsDoc();
  std::string snap = Snapshot::Write(StoredDocument::Build(doc));
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = snap;
    int flips = 1 + static_cast<int>(rng.Uniform(8));
    bool changed = false;
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(mutated.size());
      uint8_t x = static_cast<uint8_t>(rng.Uniform(256));
      changed |= x != 0;
      mutated[pos] = static_cast<char>(mutated[pos] ^ x);
    }
    if (!changed) continue;
    auto r = Snapshot::Load(mutated);
    EXPECT_FALSE(r.ok());
  }
}

TEST(SnapshotV2Test, StatsSectionRoundTripsBitIdentical) {
  // A v2 snapshot with the STATS section restores column statistics
  // bit-for-bit, and one written without it (the pre-STATS layout) still
  // loads and recomputes the very same statistics — so the cost model sees
  // identical numbers whichever path hydrated the document.
  xml::Document doc = AuctionsDoc();
  StoredDocument built = StoredDocument::Build(doc);
  std::string with_stats = Snapshot::Write(built, /*stats_section=*/true);
  std::string without = Snapshot::Write(built, /*stats_section=*/false);
  ASSERT_GT(with_stats.size(), without.size());

  auto from_stats = Snapshot::Load(with_stats);
  auto recomputed = Snapshot::Load(without);
  ASSERT_TRUE(from_stats.ok()) << from_stats.status();
  ASSERT_TRUE(recomputed.ok()) << recomputed.status();

  size_t covered = 0;
  for (dg::TypeId t = 0; t < built.dataguide().num_types(); ++t) {
    const idx::TypeColumn* want = built.value_index().Column(t);
    const idx::TypeColumn* a = from_stats->value_index().Column(t);
    const idx::TypeColumn* b = recomputed->value_index().Column(t);
    ASSERT_EQ(want == nullptr, a == nullptr);
    ASSERT_EQ(want == nullptr, b == nullptr);
    if (want == nullptr) continue;
    ++covered;
    for (const idx::TypeColumn* got : {a, b}) {
      const idx::ColumnStats& ws = want->stats;
      const idx::ColumnStats& gs = got->stats;
      EXPECT_EQ(gs.row_count, ws.row_count);
      EXPECT_EQ(gs.numeric_count, ws.numeric_count);
      EXPECT_EQ(gs.distinct_terms, ws.distinct_terms);
      EXPECT_EQ(gs.max_term_rows, ws.max_term_rows);
      EXPECT_EQ(gs.min_value, ws.min_value);
      EXPECT_EQ(gs.max_value, ws.max_value);
      EXPECT_EQ(gs.bucket_max, ws.bucket_max);
      EXPECT_EQ(gs.bucket_rows, ws.bucket_rows);
      EXPECT_EQ(gs.bucket_distinct, ws.bucket_distinct);
      EXPECT_EQ(gs.zone_min, ws.zone_min);
      EXPECT_EQ(gs.zone_max, ws.zone_max);
      EXPECT_EQ(gs.zone_term_min, ws.zone_term_min);
      EXPECT_EQ(gs.zone_term_max, ws.zone_term_max);
    }
  }
  ASSERT_GT(covered, 0u);
}

TEST(SnapshotV2Test, PreStatsThreeSectionLayoutStillLoads) {
  // Snapshots written before the STATS section existed carry exactly three
  // sections; they must keep loading, and re-writing the loaded document
  // must reproduce the current (four-section) bytes of a fresh build.
  xml::Document doc = testutil::PaperFigure2();
  StoredDocument built = StoredDocument::Build(doc);
  std::string old_layout = Snapshot::Write(built, /*stats_section=*/false);
  auto loaded = Snapshot::Load(old_layout);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(Snapshot::Write(*loaded), Snapshot::Write(built));
}

TEST(SnapshotV2Test, MismatchedStatsShapeRejected) {
  // A stats record whose shape disagrees with the column it claims to
  // describe must be rejected, not installed.
  idx::Dictionary dict;
  dict.Intern("10");
  dict.Intern("20");
  std::vector<uint32_t> ids = {0, 1, 0, 1};
  idx::ColumnStats bogus;  // zero counts, no zones: wrong for 4 rows
  auto col = idx::ValueIndex::ColumnFromTermIds(ids, &dict, &bogus);
  ASSERT_FALSE(col.ok());
  EXPECT_TRUE(col.status().IsInvalidArgument());
}

TEST(SnapshotV2Test, V1FormatTruncationAndMutationStillSafe) {
  // The legacy reader keeps its own fuzz hardening, over the checked-in
  // v1 file, now that nothing writes v1 and the shared tests above do not
  // cover it.
  std::string snap = TestData("books_v1.vpsn");
  ASSERT_EQ(snap.size(), 733u);
  for (size_t cut = 0; cut < snap.size(); ++cut) {
    auto r = Snapshot::Load(std::string_view(snap).substr(0, cut));
    ASSERT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << "cut at " << cut;
  }
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = snap;
    mutated[rng.Uniform(mutated.size())] =
        static_cast<char>(rng.Uniform(256));
    auto r = Snapshot::Load(mutated);  // must not crash; may fail or succeed
    if (r.ok()) {
      EXPECT_FALSE(Snapshot::Write(*r).empty());
    }
  }
}

}  // namespace
}  // namespace vpbn::storage
