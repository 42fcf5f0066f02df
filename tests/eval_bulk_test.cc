#include "query/eval_bulk.h"

#include <gtest/gtest.h>

#include "query/engine.h"
#include "query/eval_indexed.h"
#include "tests/test_util.h"
#include "workload/auctions.h"
#include "workload/books.h"
#include "workload/treebank.h"

namespace vpbn::query {
namespace {

struct Fixture {
  xml::Document doc;
  storage::StoredDocument stored;

  explicit Fixture(xml::Document d)
      : doc(std::move(d)), stored(storage::StoredDocument::Build(doc)) {}
  Fixture() : Fixture(testutil::PaperFigure2()) {}

  /// Runs bulk and indexed, requires agreement, returns count.
  size_t Agree(std::string_view path) {
    auto bulk = EvalBulk(stored, path);
    auto idx = EvalIndexed(stored, path);
    EXPECT_TRUE(bulk.ok()) << path << ": " << bulk.status();
    EXPECT_TRUE(idx.ok()) << path << ": " << idx.status();
    if (bulk.ok() && idx.ok()) {
      EXPECT_EQ(*bulk, *idx) << path;
      return bulk->size();
    }
    return 0;
  }
};

TEST(EvalBulkTest, PureChains) {
  Fixture f;
  EXPECT_EQ(f.Agree("/data/book/title"), 2u);
  EXPECT_EQ(f.Agree("//name"), 2u);
  EXPECT_EQ(f.Agree("/data//location"), 2u);
  EXPECT_EQ(f.Agree("//book/*"), 6u);
  EXPECT_EQ(f.Agree("//title/text()"), 2u);
  EXPECT_EQ(f.Agree("/nosuch"), 0u);
}

TEST(EvalBulkTest, ExistencePredicates) {
  Fixture f;
  EXPECT_EQ(f.Agree("//book[publisher]"), 2u);
  EXPECT_EQ(f.Agree("//book[author/name]/title"), 2u);
  EXPECT_EQ(f.Agree("//book[nosuch]"), 0u);
  EXPECT_EQ(f.Agree("//book[author][publisher/location]/title/text()"), 2u);
  // Nested predicates.
  EXPECT_EQ(f.Agree("//data[book[author[name]]]"), 1u);
}

TEST(EvalBulkTest, PredicateActuallyFilters) {
  auto parsed = xml::Parse(
      "<data><book><title>A</title><author/></book>"
      "<book><title>B</title></book></data>");
  ASSERT_TRUE(parsed.ok());
  Fixture f(std::move(parsed).ValueUnsafe());
  EXPECT_EQ(f.Agree("//book[author]/title"), 1u);
  auto r = EvalBulk(f.stored, "//book[author]/title/text()");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(f.stored.Value((*r)[0]), "A");
}

TEST(EvalBulkTest, OutsideFragmentIsNotImplemented) {
  Fixture f;
  for (const char* path :
       {"//title/..", "//name/ancestor::book",
        "//book[@year]", "//book[count(author) > 1]",
        "//title/following-sibling::author", "//book[not(publisher)]"}) {
    auto r = EvalBulk(f.stored, path);
    EXPECT_TRUE(r.status().IsNotImplemented()) << path << ": " << r.status();
  }
}

TEST(EvalBulkTest, ValuePredicatesAreInFragment) {
  // Value predicates (comparison / contains / starts-with against a
  // literal) joined the bulk fragment with the value index; they must
  // agree with the indexed evaluator.
  Fixture f;
  for (const char* text :
       {"//title[text() = \"X\"]", "//book[title = \"Y\"]",
        "//book[@year >= 1995]", "//book[contains(title, \"X\")]"}) {
    auto path = ParsePath(text);
    ASSERT_TRUE(path.ok()) << text;
    auto bulk = EvalBulk(f.stored, *path);
    auto idx = EvalIndexed(f.stored, *path);
    ASSERT_TRUE(bulk.ok()) << text << ": " << bulk.status();
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(*bulk, *idx) << text;
  }
}

TEST(EvalBulkTest, FallbackWrapperAlwaysAnswers) {
  // The engine plans paths outside the bulk fragment on the indexed
  // evaluator, so every path gets an answer.
  Fixture f;
  QueryEngine engine(std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(f.doc)));
  for (const char* text :
       {"//book[author/name]/title", "//name/ancestor::book",
        "//book[@year >= 0]"}) {
    auto combined = engine.Execute(text);
    auto idx = EvalIndexed(f.stored, text);
    ASSERT_TRUE(combined.ok()) << text << combined.status();
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(combined->node_ids(), *idx) << text;
  }
}

class BulkAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BulkAgreementTest, BooksWorkload) {
  workload::BooksOptions opts;
  opts.seed = GetParam();
  opts.num_books = 60;
  opts.publisher_prob = 0.5;
  opts.title_prob = 0.8;
  Fixture f(workload::GenerateBooks(opts));
  const char* paths[] = {
      "//book/title",
      "//book[publisher]/author/name",
      "//book[title][publisher]",
      "//book[author/name]//text()",
      "/data/book[publisher/location]/title/text()",
      "//author[name]",
  };
  for (const char* path : paths) f.Agree(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkAgreementTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(EvalBulkTest, AuctionsAndTreebank) {
  workload::AuctionsOptions aopts;
  aopts.num_items = 40;
  aopts.num_auctions = 30;
  Fixture a(workload::GenerateAuctions(aopts));
  a.Agree("//auction[bidder/price]/itemref");
  a.Agree("//regions//item/name");
  a.Agree("/site/people/person[city]");

  workload::TreebankOptions topts;
  topts.num_sentences = 15;
  Fixture t(workload::GenerateTreebank(topts));
  t.Agree("//NP//word");
  t.Agree("//S[NP]//VP/word");
  t.Agree("//VP[NP[word]]");
}

}  // namespace
}  // namespace vpbn::query
