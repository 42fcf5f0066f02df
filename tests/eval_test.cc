/// \file eval_test.cc
/// \brief Tests the navigational and indexed evaluators, plus the property
/// that both always agree (the indexed evaluator is a pure optimization).

#include <gtest/gtest.h>

#include "query/eval_indexed.h"
#include "query/eval_nav.h"
#include "tests/test_util.h"
#include "workload/auctions.h"
#include "workload/books.h"

namespace vpbn::query {
namespace {

struct Fixture {
  xml::Document doc;
  storage::StoredDocument stored;

  explicit Fixture(xml::Document d)
      : doc(std::move(d)), stored(storage::StoredDocument::Build(doc)) {}
  Fixture() : Fixture(testutil::PaperFigure2()) {}

  /// Runs both evaluators, checks agreement, returns string values.
  std::vector<std::string> Both(std::string_view path) {
    auto nav = EvalNav(doc, path);
    auto idx = EvalIndexed(stored, path);
    EXPECT_TRUE(nav.ok()) << path << ": " << nav.status();
    EXPECT_TRUE(idx.ok()) << path << ": " << idx.status();
    std::vector<std::string> nav_values;
    if (nav.ok() && idx.ok()) {
      EXPECT_EQ(nav->size(), idx->size()) << path;
      for (size_t i = 0; i < nav->size() && i < idx->size(); ++i) {
        // Same nodes, same order.
        EXPECT_EQ((*nav)[i], (*idx)[i]) << path;
      }
      for (xml::NodeId n : *nav) nav_values.push_back(doc.StringValue(n));
    }
    return nav_values;
  }
};

TEST(EvalTest, RootStep) {
  Fixture f;
  EXPECT_EQ(f.Both("/data").size(), 1u);
  EXPECT_TRUE(f.Both("/book").empty());  // book is not a root
}

TEST(EvalTest, ChildChain) {
  Fixture f;
  auto titles = f.Both("/data/book/title");
  ASSERT_EQ(titles.size(), 2u);
  EXPECT_EQ(titles[0], "X");
  EXPECT_EQ(titles[1], "Y");
}

TEST(EvalTest, DescendantShorthand) {
  Fixture f;
  EXPECT_EQ(f.Both("//name").size(), 2u);
  EXPECT_EQ(f.Both("//book").size(), 2u);
  EXPECT_EQ(f.Both("/data//location").size(), 2u);
}

TEST(EvalTest, TextNodes) {
  Fixture f;
  auto texts = f.Both("//title/text()");
  ASSERT_EQ(texts.size(), 2u);
  EXPECT_EQ(texts[0], "X");
  auto all_text = f.Both("//text()");
  EXPECT_EQ(all_text.size(), 6u);
}

TEST(EvalTest, Wildcard) {
  Fixture f;
  EXPECT_EQ(f.Both("/data/*").size(), 2u);
  EXPECT_EQ(f.Both("/data/book/*").size(), 6u);
}

TEST(EvalTest, ParentStep) {
  Fixture f;
  // The paper's own navigation: $t/../author.
  auto authors = f.Both("//title/../author");
  ASSERT_EQ(authors.size(), 2u);
  EXPECT_EQ(authors[0], "C");
}

TEST(EvalTest, AncestorAxis) {
  Fixture f;
  EXPECT_EQ(f.Both("//name/ancestor::book").size(), 2u);
  EXPECT_EQ(f.Both("//name/ancestor::data").size(), 1u);
  EXPECT_EQ(f.Both("//name/ancestor-or-self::*").size(), 7u);
}

TEST(EvalTest, SiblingAxes) {
  Fixture f;
  auto after_title = f.Both("//title/following-sibling::*");
  EXPECT_EQ(after_title.size(), 4u);  // author+publisher per book
  auto before_pub = f.Both("//publisher/preceding-sibling::title");
  EXPECT_EQ(before_pub.size(), 2u);
}

TEST(EvalTest, FollowingPreceding) {
  Fixture f;
  // Everything after the first <name> that is not its descendant.
  auto following = f.Both("//author/following::location");
  EXPECT_EQ(following.size(), 2u);
  auto preceding = f.Both("//publisher/preceding::title");
  EXPECT_EQ(preceding.size(), 2u);  // dedup: both titles precede publishers
}

TEST(EvalTest, ValuePredicates) {
  Fixture f;
  auto x_books = f.Both("/data/book[title = \"X\"]");
  ASSERT_EQ(x_books.size(), 1u);
  EXPECT_EQ(x_books[0], "XCW");
  EXPECT_TRUE(f.Both("/data/book[title = \"Z\"]").empty());
  EXPECT_EQ(f.Both("//book[author/name = \"D\"]/title")[0], "Y");
}

TEST(EvalTest, ExistencePredicates) {
  Fixture f;
  EXPECT_EQ(f.Both("//book[publisher]").size(), 2u);
  EXPECT_TRUE(f.Both("//book[not(publisher)]").empty());
  EXPECT_EQ(f.Both("//book[title and author]").size(), 2u);
}

TEST(EvalTest, CountPredicate) {
  Fixture f;
  EXPECT_EQ(f.Both("//book[count(author) = 1]").size(), 2u);
  EXPECT_TRUE(f.Both("//book[count(author) > 1]").empty());
}

TEST(EvalTest, AttributePredicate) {
  auto parsed = xml::Parse(
      "<data><book year=\"1994\"><title>A</title></book>"
      "<book year=\"2001\"><title>B</title></book></data>");
  ASSERT_TRUE(parsed.ok());
  Fixture f(std::move(parsed).ValueUnsafe());
  auto old_books = f.Both("//book[@year < 2000]/title");
  ASSERT_EQ(old_books.size(), 1u);
  EXPECT_EQ(old_books[0], "A");
  // Missing attribute compares false.
  EXPECT_TRUE(f.Both("//book[@missing = 1]").empty());
}

TEST(EvalTest, AttributeStepOutsidePredicateFails) {
  Fixture f;
  EXPECT_FALSE(EvalNav(f.doc, "//book/@year").ok());
}

TEST(EvalTest, DocumentOrderAndDedup) {
  Fixture f;
  // ancestor-or-self from all names yields each book once, in order.
  auto books = f.Both("//name/ancestor-or-self::book");
  ASSERT_EQ(books.size(), 2u);
  EXPECT_EQ(books[0], "XCW");
  EXPECT_EQ(books[1], "YDM");
}

TEST(EvalTest, ParseErrorsPropagate) {
  Fixture f;
  EXPECT_FALSE(EvalNav(f.doc, "not-absolute").ok());
  EXPECT_FALSE(EvalIndexed(f.stored, "/a[").ok());
}

/// Property: both evaluators agree on a battery of paths over generated
/// workloads.
class EvalAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvalAgreementTest, NavAndIndexedAgree) {
  workload::BooksOptions opts;
  opts.seed = GetParam();
  opts.num_books = 30;
  opts.publisher_prob = 0.6;
  opts.title_prob = 0.9;
  xml::Document doc = workload::GenerateBooks(opts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  const char* paths[] = {
      "/data/book/title",
      "//name",
      "//book[publisher]/title",
      "//book[count(author) > 1]/author/name",
      "//author/../title",
      "//name/ancestor::book/publisher/location",
      "//title/following-sibling::author",
      "//book[@year > 1990][title]/descendant::text()",
      "//location/preceding::name",
      "//book[author/name = title]/title",  // almost surely empty
  };
  for (const char* path : paths) {
    auto nav = EvalNav(doc, path);
    auto idx = EvalIndexed(stored, path);
    ASSERT_TRUE(nav.ok()) << path << nav.status();
    ASSERT_TRUE(idx.ok()) << path << idx.status();
    ASSERT_EQ(nav->size(), idx->size()) << path;
    for (size_t i = 0; i < nav->size(); ++i) {
      EXPECT_EQ((*nav)[i], (*idx)[i]) << path;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(EvalTest, AuctionWorkloadAgreement) {
  workload::AuctionsOptions opts;
  opts.num_items = 40;
  opts.num_people = 20;
  opts.num_auctions = 30;
  xml::Document doc = workload::GenerateAuctions(opts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  const char* paths[] = {
      "//item/name",
      "//auction[count(bidder) > 2]",
      "//person[city = \"Oslo\"]/name",
      "//bidder/price",
      "/site/regions/*/item",
  };
  for (const char* path : paths) {
    auto nav = EvalNav(doc, path);
    auto idx = EvalIndexed(stored, path);
    ASSERT_TRUE(nav.ok()) << path;
    ASSERT_TRUE(idx.ok()) << path;
    EXPECT_EQ(nav->size(), idx->size()) << path;
  }
}

}  // namespace
}  // namespace vpbn::query
