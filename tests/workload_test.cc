#include <gtest/gtest.h>

#include "storage/stored_document.h"
#include "vdg/vdataguide.h"
#include "workload/auctions.h"
#include "workload/bibliography.h"
#include "workload/books.h"
#include "workload/random_trees.h"
#include "xml/serializer.h"

namespace vpbn::workload {
namespace {

TEST(BooksTest, DeterministicForSeed) {
  BooksOptions opts;
  opts.seed = 5;
  opts.num_books = 10;
  xml::Document a = GenerateBooks(opts);
  xml::Document b = GenerateBooks(opts);
  EXPECT_EQ(xml::SerializeDocument(a), xml::SerializeDocument(b));
  opts.seed = 6;
  xml::Document c = GenerateBooks(opts);
  EXPECT_NE(xml::SerializeDocument(a), xml::SerializeDocument(c));
}

TEST(BooksTest, ShapeMatchesPaperSchema) {
  BooksOptions opts;
  opts.num_books = 25;
  xml::Document doc = GenerateBooks(opts);
  dg::DataGuide g = dg::DataGuide::Build(doc);
  EXPECT_TRUE(g.FindByPath("data").ok());
  EXPECT_TRUE(g.FindByPath("data.book").ok());
  EXPECT_TRUE(g.FindByPath("data.book.title").ok());
  EXPECT_TRUE(g.FindByPath("data.book.author.name").ok());
  EXPECT_TRUE(g.FindByPath("data.book.publisher.location").ok());
  // 25 books under data.
  EXPECT_EQ(doc.ChildCount(doc.roots()[0]), 25u);
}

TEST(BooksTest, OptionsControlShape) {
  BooksOptions opts;
  opts.num_books = 40;
  opts.publisher_prob = 0.0;
  opts.title_prob = 0.0;
  opts.with_attributes = false;
  xml::Document doc = GenerateBooks(opts);
  dg::DataGuide g = dg::DataGuide::Build(doc);
  EXPECT_FALSE(g.FindByPath("data.book.publisher").ok());
  EXPECT_FALSE(g.FindByPath("data.book.title").ok());
  EXPECT_TRUE(g.FindByPath("data.book.author").ok());
  xml::NodeId book0 = doc.Children(doc.roots()[0])[0];
  EXPECT_TRUE(doc.attributes(book0).empty());
}

TEST(BooksTest, AuthorsBetweenOneAndMax) {
  BooksOptions opts;
  opts.num_books = 60;
  opts.max_extra_authors = 2;
  xml::Document doc = GenerateBooks(opts);
  for (xml::NodeId book : doc.Children(doc.roots()[0])) {
    int authors = 0;
    for (xml::NodeId c : doc.Children(book)) {
      if (doc.name(c) == "author") ++authors;
    }
    EXPECT_GE(authors, 1);
    EXPECT_LE(authors, 3);
  }
}

TEST(AuctionsTest, ShapeAndScale) {
  AuctionsOptions opts;
  opts.num_items = 30;
  opts.num_people = 15;
  opts.num_auctions = 20;
  xml::Document doc = GenerateAuctions(opts);
  dg::DataGuide g = dg::DataGuide::Build(doc);
  EXPECT_TRUE(g.FindByPath("site.people.person.name").ok());
  EXPECT_TRUE(g.FindByPath("site.open_auctions.auction.bidder.price").ok());
  storage::StoredDocument s = storage::StoredDocument::Build(doc);
  auto person = g.FindByPath("site.people.person");
  ASSERT_TRUE(person.ok());
  EXPECT_EQ(s.NodeIdsOfType(*person).size(), 15u);
  auto auction = g.FindByPath("site.open_auctions.auction");
  ASSERT_TRUE(auction.ok());
  EXPECT_EQ(s.NodeIdsOfType(*auction).size(), 20u);
}

TEST(AuctionsTest, Deterministic) {
  AuctionsOptions opts;
  opts.seed = 9;
  EXPECT_EQ(xml::SerializeDocument(GenerateAuctions(opts)),
            xml::SerializeDocument(GenerateAuctions(opts)));
}

TEST(BibliographyTest, SharedAuthorPool) {
  BibliographyOptions opts;
  opts.num_publications = 50;
  opts.author_pool = 10;
  xml::Document doc = GenerateBibliography(opts);
  // Author names repeat across publications (pool is small).
  std::map<std::string, int> counts;
  for (xml::NodeId id = 0; id < doc.num_nodes(); ++id) {
    if (doc.IsElement(id) && doc.name(id) == "author") {
      counts[doc.StringValue(id)]++;
    }
  }
  EXPECT_LE(counts.size(), 10u);
  int repeated = 0;
  for (const auto& [name, n] : counts) {
    if (n > 1) ++repeated;
  }
  EXPECT_GT(repeated, 0);
}

TEST(BibliographyTest, BothPublicationKinds) {
  BibliographyOptions opts;
  opts.num_publications = 40;
  xml::Document doc = GenerateBibliography(opts);
  dg::DataGuide g = dg::DataGuide::Build(doc);
  EXPECT_TRUE(g.FindByPath("bib.article").ok());
  EXPECT_TRUE(g.FindByPath("bib.inproceedings").ok());
  EXPECT_TRUE(g.FindByPath("bib.article.journal").ok());
  EXPECT_TRUE(g.FindByPath("bib.inproceedings.booktitle").ok());
}

TEST(RandomTreesTest, RespectsNodeBudgetAndDepth) {
  RandomTreeOptions opts;
  opts.seed = 3;
  opts.num_nodes = 500;
  opts.max_depth = 8;
  xml::Document doc = GenerateRandomTree(opts);
  EXPECT_GE(doc.num_nodes(), 500u);
  for (xml::NodeId id = 0; id < doc.num_nodes(); ++id) {
    EXPECT_LE(doc.Depth(id), 9u);  // leaves may exceed by one (text)
  }
}

TEST(RandomTreesTest, RandomSpecIsValid) {
  RandomTreeOptions topts;
  topts.seed = 11;
  topts.num_nodes = 200;
  xml::Document doc = GenerateRandomTree(topts);
  dg::DataGuide g = dg::DataGuide::Build(doc);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RandomSpecOptions sopts;
    sopts.seed = seed;
    sopts.num_types = 6;
    std::string spec = GenerateRandomSpec(g, sopts);
    ASSERT_FALSE(spec.empty());
    auto vg = vdg::VDataGuide::Create(spec, g);
    EXPECT_TRUE(vg.ok()) << "seed " << seed << ": " << spec << "\n"
                         << vg.status();
  }
}

TEST(RandomTreesTest, SpecDeterministic) {
  RandomTreeOptions topts;
  xml::Document doc = GenerateRandomTree(topts);
  dg::DataGuide g = dg::DataGuide::Build(doc);
  RandomSpecOptions sopts;
  sopts.seed = 4;
  EXPECT_EQ(GenerateRandomSpec(g, sopts), GenerateRandomSpec(g, sopts));
}

TEST(AuctionsTest, ChunkedGenerationIsByteIdentical) {
  AuctionsOptions opts;
  opts.num_items = 80;
  opts.num_people = 50;
  opts.num_auctions = 70;
  std::string whole = xml::SerializeDocument(GenerateAuctions(opts));
  // Every chunk size — including 1 record at a time and one oversized
  // chunk — produces the same document bytes.
  for (int chunk : {1, 7, 64, 100000}) {
    uint64_t last_done = 0;
    uint64_t reported_total = 0;
    xml::Document doc = GenerateAuctionsChunked(
        opts, chunk, [&](uint64_t done, uint64_t total) {
          EXPECT_GE(done, last_done);
          last_done = done;
          reported_total = total;
        });
    EXPECT_EQ(xml::SerializeDocument(doc), whole) << "chunk=" << chunk;
    EXPECT_EQ(last_done, reported_total);
    EXPECT_EQ(reported_total,
              static_cast<uint64_t>(opts.num_items + opts.num_people +
                                    opts.num_auctions));
  }
}

TEST(AuctionsTest, StreamEmitsIncrementally) {
  AuctionsOptions opts;
  opts.num_items = 30;
  opts.num_people = 20;
  opts.num_auctions = 25;
  AuctionsStream stream(opts);
  xml::DocumentBuilder b;
  int batches = 0;
  while (stream.Next(&b, 10)) ++batches;
  EXPECT_GE(batches, 7);  // 75 records at <=10 per call
  xml::Document doc = std::move(b).Finish();
  EXPECT_EQ(xml::SerializeDocument(doc),
            xml::SerializeDocument(GenerateAuctions(opts)));
  EXPECT_EQ(stream.records_emitted(), stream.records_total());
}

TEST(AuctionsTest, ScaledAuctionsKeepsRatio) {
  AuctionsOptions unit = ScaledAuctions(0.01);
  EXPECT_EQ(unit.num_items, 200);
  EXPECT_EQ(unit.num_people, 100);
  EXPECT_EQ(unit.num_auctions, 150);
  AuctionsOptions big = ScaledAuctions(1.0, 42);
  EXPECT_EQ(big.num_items, 20000);
  EXPECT_EQ(big.num_people, 10000);
  EXPECT_EQ(big.num_auctions, 15000);
  EXPECT_EQ(big.seed, 42u);
  // Degenerate factors never produce empty sections.
  AuctionsOptions tiny = ScaledAuctions(0.0);
  EXPECT_GE(tiny.num_items, 1);
  EXPECT_GE(tiny.num_people, 1);
  EXPECT_GE(tiny.num_auctions, 1);
}

}  // namespace
}  // namespace vpbn::workload
