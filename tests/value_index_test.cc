/// \file value_index_test.cc
/// \brief Value index + predicate pushdown: dictionary/column units,
/// cross-substrate differential tests, and the randomized byte-identity
/// property — pushdown answers must equal the per-node scan path for every
/// comparison operator, on stored and virtual documents, at 1/2/8 threads.

#include "index/value_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "query/engine.h"
#include "query/eval_bulk.h"
#include "query/eval_indexed.h"
#include "query/eval_nav.h"
#include "tests/per_node_adapter.h"
#include "tests/test_util.h"
#include "vpbn/virtual_document.h"
#include "workload/books.h"
#include "xml/parser.h"

namespace vpbn::query {
namespace {

// ---------------------------------------------------------------------------
// Unit tests on the index layer itself.

TEST(DictionaryTest, InternDeduplicatesAndParses) {
  idx::Dictionary dict;
  uint32_t a = dict.Intern("42");
  uint32_t b = dict.Intern("abc");
  EXPECT_EQ(dict.Intern("42"), a);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.term(a), "42");
  EXPECT_TRUE(dict.numeric(a));
  EXPECT_EQ(dict.number(a), 42.0);
  EXPECT_FALSE(dict.numeric(b));
  EXPECT_EQ(dict.Find("abc"), b);
  EXPECT_EQ(dict.Find("nosuch"), idx::kNoTerm);
}

TEST(DictionaryTest, NumericInterpretationTrimsWhitespace) {
  idx::Dictionary dict;
  uint32_t t = dict.Intern("  7.5 ");
  EXPECT_TRUE(dict.numeric(t));
  EXPECT_EQ(dict.number(t), 7.5);
  // Distinct byte strings stay distinct terms even when numerically equal.
  EXPECT_NE(dict.Intern("7.5"), t);
}

TEST(TypeColumnTest, NumericRowsSortedAndNaNExcluded) {
  idx::Dictionary dict;
  std::vector<std::string> values = {"3", "abc", "1", "nan", "2", "1"};
  idx::TypeColumn col = idx::ValueIndex::BuildColumn(
      values.size(), [&](size_t row) { return values[row]; }, &dict);
  // "abc" and "nan" are out ("nan" would break the strict weak ordering);
  // ties ("1") stay in row order.
  std::vector<uint32_t> expect = {2, 5, 4, 0};
  EXPECT_EQ(col.numeric_rows, expect);
  // Postings list every row of a term, ascending.
  uint32_t one = dict.Find("1");
  ASSERT_NE(one, idx::kNoTerm);
  std::vector<uint32_t> ones = {2, 5};
  EXPECT_EQ(col.postings.at(one), ones);
}

TEST(ValueIndexTest, CoversLeafTypesAndAttributes) {
  auto parsed = xml::Parse(
      "<data><book year=\"1994\"><title>X</title>"
      "<author><name>C</name></author></book></data>");
  ASSERT_TRUE(parsed.ok());
  storage::StoredDocument stored =
      storage::StoredDocument::Build(*parsed);
  const idx::ValueIndex& vi = stored.value_index();
  const dg::DataGuide& g = stored.dataguide();
  for (dg::TypeId t = 0; t < g.num_types(); ++t) {
    bool covered = vi.Column(t) != nullptr;
    EXPECT_EQ(covered, idx::ValueIndex::GuideCovers(g, t)) << g.label(t);
    // <book> has element children (title, author) -> not covered; <title>
    // and text types are.
    if (g.label(t) == "book") EXPECT_FALSE(covered);
    if (g.label(t) == "title") EXPECT_TRUE(covered);
    if (g.label(t) == "book") {
      EXPECT_NE(vi.Attr(t, "year"), nullptr);
      EXPECT_EQ(vi.Attr(t, "nosuch"), nullptr);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential tests: every substrate, every operator, same answers.

std::string FirstValue(const xml::Document& doc, const char* path) {
  auto r = EvalNav(doc, path);
  EXPECT_TRUE(r.ok() && !r->empty()) << path;
  return doc.StringValue(r->front());
}

TEST(ValuePredicateDifferentialTest, StoredSubstratesAgreeWithNav) {
  workload::BooksOptions opts;
  opts.seed = 42;
  opts.num_books = 120;
  xml::Document doc = workload::GenerateBooks(opts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);

  std::string title = FirstValue(doc, "//title");
  std::string name = FirstValue(doc, "//name");
  std::vector<std::string> paths = {
      "//book[title = \"" + title + "\"]",
      "//book[title != \"" + title + "\"]",
      "//book[@year < 1990]",
      "//book[@year >= 1990]",
      "//book[author/name = \"" + name + "\"]",
      "//book[contains(title, \"Vol\")]/title",
      "//book[starts-with(title, \"" + title.substr(0, 3) + "\")]",
      "//book[1990 <= @year]",  // mirrored literal-on-the-left form
  };
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    auto nav = EvalNav(doc, path);
    auto idx = EvalIndexed(stored, path);
    ASSERT_TRUE(nav.ok()) << nav.status();
    ASSERT_TRUE(idx.ok()) << idx.status();
    EXPECT_EQ(nav->size(), idx->size());
    if (InBulkFragment(*ParsePath(path))) {
      auto bulk = EvalBulk(stored, path);
      ASSERT_TRUE(bulk.ok()) << bulk.status();
      EXPECT_EQ(*bulk, *idx);
    }
  }
}

TEST(ValuePredicateDifferentialTest, VirtualAgreesWithItsScanPath) {
  workload::BooksOptions opts;
  opts.seed = 9;
  opts.num_books = 120;
  xml::Document doc = workload::GenerateBooks(opts);
  auto stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(doc));
  auto v = virt::VirtualDocument::OpenShared(stored, testutil::SamSpec());
  ASSERT_TRUE(v.ok()) << v.status();
  QueryEngine engine(*v);

  std::string name = FirstValue(doc, "//name");
  std::vector<std::string> paths = {
      "//author[name = \"" + name + "\"]",
      "//author[name != \"" + name + "\"]",
      "//title[author/name = \"" + name + "\"]",
      "//title[contains(author/name, \"" + name.substr(0, 2) + "\")]",
      "//name[text() = \"" + name + "\"]",
  };
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    auto on = engine.Execute(path);
    auto per_node = testutil::EvalPerNode(**v, path);
    ASSERT_TRUE(on.ok()) << on.status();
    ASSERT_TRUE(per_node.ok()) << per_node.status();
    EXPECT_EQ(on->virtual_nodes(), *per_node);
    EXPECT_FALSE(on->virtual_nodes().empty());
  }
}

// Numeric comparison semantics (satellite 1): `[price > 50]` compares
// numerically when both sides are numeric and never matches non-numeric
// values — on every substrate.
TEST(ValuePredicateDifferentialTest, RelationalNeverMatchesNonNumeric) {
  auto parsed = xml::Parse(
      "<data>"
      "<book><price>9</price></book>"
      "<book><price>10</price></book>"
      "<book><price>cheap</price></book>"
      "<book><price> 50 </price></book>"
      "</data>");
  ASSERT_TRUE(parsed.ok());
  xml::Document doc = std::move(parsed).ValueUnsafe();
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  struct Case {
    const char* path;
    size_t count;
  } cases[] = {
      // "9" < "10" numerically; lexicographically it is not.
      {"//book[price < 10]", 1},
      {"//book[price <= 10]", 2},
      {"//book[price > 9]", 2},
      {"//book[price >= 50]", 1},  // whitespace-trimmed " 50 " matches
      {"//book[price = 50]", 1},
      {"//book[price = \"cheap\"]", 1},   // string equality still works
      {"//book[price != \"cheap\"]", 3},  // and so does inequality
      {"//book[price > \"a\"]", 0},       // non-numeric rhs: nothing
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.path);
    auto nav = EvalNav(doc, c.path);
    auto idx = EvalIndexed(stored, c.path);
    auto bulk = EvalBulk(stored, c.path);
    ASSERT_TRUE(nav.ok()) << nav.status();
    ASSERT_TRUE(idx.ok()) << idx.status();
    ASSERT_TRUE(bulk.ok()) << bulk.status();
    EXPECT_EQ(nav->size(), c.count);
    EXPECT_EQ(idx->size(), c.count);
    EXPECT_EQ(*bulk, *idx);
  }
}

// ---------------------------------------------------------------------------
// Randomized property: pushdown == scan, byte for byte.

/// A books-shaped catalog whose values mix clean integers, floats, padded
/// numbers, duplicates and non-numeric junk — every shape the dictionary's
/// numeric interpretation has to agree on with the evaluator's ToNumber.
xml::Document JunkCatalog(uint64_t seed, int num_books) {
  static const char* kPool[] = {
      "42",  "42.0", " 42 ", "0042", "-3.5", "1e2",   "7",
      "abc", "12x",  "",     "Vol. 7", "inf", "0",    "999",
  };
  Rng rng(seed);
  auto pick = [&]() -> std::string {
    if (rng.Bernoulli(0.5)) return kPool[rng.Uniform(std::size(kPool))];
    return std::to_string(rng.Uniform(50));  // dense duplicate range
  };
  std::string xml = "<data>";
  for (int i = 0; i < num_books; ++i) {
    xml += "<book year=\"" + pick() + "\">";
    xml += "<title>" + pick() + "</title>";
    xml += "<author><name>" + pick() + "</name></author>";
    xml += "<price>" + pick() + "</price>";
    xml += "</book>";
  }
  xml += "</data>";
  auto parsed = xml::Parse(xml);
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).ValueUnsafe();
}

TEST(ValueIndexPropertyTest, PushdownMatchesScanOnStoredDocument) {
  // ~12k nodes: book + title/author/name/price elements + 3 text nodes.
  xml::Document doc = JunkCatalog(/*seed=*/2026, /*num_books=*/1500);
  ASSERT_GE(doc.num_nodes(), 10000u);
  auto stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(doc));
  QueryEngine engine(stored);

  static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  static const char* kLits[] = {"42", "\" 42 \"", "\"abc\"", "17",
                                "\"-3.5\"", "\"1e2\"", "\"\""};
  std::vector<std::string> paths;
  for (const char* op : kOps) {
    for (const char* lit : kLits) {
      paths.push_back(std::string("//book[price ") + op + " " + lit + "]");
      paths.push_back(std::string("//book[@year ") + op + " " + lit + "]");
    }
    paths.push_back(std::string("//book[title ") + op + " \"Vol. 7\"]");
    paths.push_back(std::string("//book[author/name ") + op + " 7]");
    paths.push_back(std::string("//price[text() ") + op + " 42]");
  }
  paths.push_back("//book[contains(title, \"2\")]");
  paths.push_back("//book[contains(title, \"\")]");
  paths.push_back("//book[starts-with(title, \"4\")]");
  paths.push_back("//book[price > 10][@year <= 45]/title");

  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    auto baseline = testutil::EvalPerNode(*stored, path);
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    for (int threads : {1, 2, 8}) {
      auto r = engine.Execute(path, {.threads = threads});
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->node_ids(), *baseline) << "threads=" << threads;
    }
  }
}

TEST(ValueIndexPropertyTest, PushdownMatchesScanOnVirtualDocument) {
  xml::Document doc = JunkCatalog(/*seed=*/7, /*num_books=*/1500);
  ASSERT_GE(doc.num_nodes(), 10000u);
  auto stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(doc));
  auto v = virt::VirtualDocument::OpenShared(stored, testutil::SamSpec());
  ASSERT_TRUE(v.ok()) << v.status();
  QueryEngine engine(*v);

  static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  std::vector<std::string> paths;
  for (const char* op : kOps) {
    paths.push_back(std::string("//author[name ") + op + " 42]");
    paths.push_back(std::string("//author[name ") + op + " \"abc\"]");
    paths.push_back(std::string("//name[text() ") + op + " \" 42 \"]");
    paths.push_back(std::string("//title[author/name ") + op + " 7]");
  }
  paths.push_back("//title[contains(author/name, \"4\")]");
  paths.push_back("//author[starts-with(name, \"V\")]");

  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    auto baseline = testutil::EvalPerNode(**v, path);
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    for (int threads : {1, 2, 8}) {
      auto r = engine.Execute(path, {.threads = threads});
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->virtual_nodes(), *baseline) << "threads=" << threads;
    }
  }
}

// The pushdown must actually run, not just agree: selective equality on a
// covered type touches the index and never falls back to per-node scans.
TEST(ValueIndexPropertyTest, StatsShowPushdown) {
  xml::Document doc = JunkCatalog(/*seed=*/3, /*num_books=*/500);
  auto stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(doc));
  QueryEngine engine(stored);
  auto on = engine.Execute("//book[price = 42]", {.collect_stats = true});
  auto per_node = testutil::EvalPerNode(*stored, "//book[price = 42]");
  ASSERT_TRUE(on.ok() && per_node.ok());
  EXPECT_GT(on->stats().value_index_lookups, 0u);
  EXPECT_EQ(on->stats().value_scan_fallbacks, 0u);
  EXPECT_EQ(on->node_ids(), *per_node);
}

}  // namespace
}  // namespace vpbn::query
