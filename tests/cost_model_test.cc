/// \file cost_model_test.cc
/// \brief Cost-based planner tests: cardinality estimate accuracy bounds
/// (the histogram's additive error guarantee, exact string-equality
/// selectivity, exact structural counts), zone-map admissibility units, the
/// costed-engine vs per-node byte-identity differential at 1/2/8 threads,
/// and deterministic zone-map data skipping on a clustered column.

#include "query/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "index/value_index.h"
#include "query/cardinality.h"
#include "query/engine.h"
#include "query/eval_nav.h"
#include "query/path_parser.h"
#include "storage/stored_document.h"
#include "tests/per_node_adapter.h"
#include "tests/test_util.h"
#include "workload/auctions.h"
#include "workload/books.h"
#include "xml/parser.h"

namespace vpbn::query {
namespace {

std::string FirstValue(const xml::Document& doc, const char* path) {
  auto r = EvalNav(doc, path);
  EXPECT_TRUE(r.ok() && !r->empty()) << path;
  return doc.StringValue(r->front());
}

// The sorted numeric values of a column, pulled straight from its rows.
std::vector<double> NumericValues(const idx::TypeColumn& col) {
  std::vector<double> values;
  for (uint32_t row : col.numeric_rows) {
    values.push_back(col.dict->number(col.term_ids[row]));
  }
  std::sort(values.begin(), values.end());
  return values;
}

// ---------------------------------------------------------------------------
// Cardinality estimate accuracy.

// The equi-depth histogram extends bucket boundaries past equal-value runs,
// so cumulative counts at every boundary are exact and the interpolation
// error inside a bucket is at most that bucket's row count. Property-check
// the resulting additive bound: |estimate - truth| <= max bucket rows.
TEST(CardinalityTest, HistogramRangeEstimateWithinOneBucket) {
  std::vector<xml::Document> docs;
  {
    workload::BooksOptions opts;
    opts.seed = 3;
    opts.num_books = 300;
    docs.push_back(workload::GenerateBooks(opts));
  }
  docs.push_back(workload::GenerateAuctions({}));

  size_t columns_checked = 0;
  for (const xml::Document& doc : docs) {
    storage::StoredDocument stored = storage::StoredDocument::Build(doc);
    const dg::DataGuide& g = stored.dataguide();
    for (dg::TypeId t = 0; t < g.num_types(); ++t) {
      const idx::TypeColumn* col = stored.value_index().Column(t);
      if (col == nullptr || col->stats.numeric_count == 0) continue;
      ++columns_checked;
      const idx::ColumnStats& s = col->stats;
      std::vector<double> values = NumericValues(*col);
      ASSERT_EQ(values.size(), s.numeric_count);
      uint64_t bound = 0;
      for (uint64_t rows : s.bucket_rows) bound = std::max(bound, rows);

      // Probe every distinct value, midpoints between neighbours, and both
      // tails (where the estimate must be exact).
      std::vector<double> probes = {values.front() - 1.0,
                                    values.back() + 1.0};
      for (size_t i = 0; i < values.size(); ++i) {
        probes.push_back(values[i]);
        if (i + 1 < values.size() && values[i] < values[i + 1]) {
          probes.push_back((values[i] + values[i + 1]) / 2);
        }
      }
      for (double v : probes) {
        for (bool inclusive : {false, true}) {
          double truth = static_cast<double>(
              inclusive
                  ? std::upper_bound(values.begin(), values.end(), v) -
                        values.begin()
                  : std::lower_bound(values.begin(), values.end(), v) -
                        values.begin());
          double est = s.EstimateRowsBelow(v, inclusive);
          // Exclusive probes pay only the in-bucket interpolation error;
          // inclusive probes add an equality estimate on top, which itself
          // is bounded by one bucket, so their bound doubles.
          double slack = static_cast<double>(inclusive ? 2 * bound : bound);
          EXPECT_LE(std::fabs(est - truth), slack + 1e-6)
              << g.path(t) << " v=" << v << " inclusive=" << inclusive;
        }
      }

      // Numeric equality: the estimate and the truth both live inside the
      // containing bucket, so the same additive bound holds.
      for (size_t i = 0; i < values.size();) {
        size_t j = i;
        while (j < values.size() && values[j] == values[i]) ++j;
        double est = s.EstimateEqRows(values[i]);
        EXPECT_LE(std::fabs(est - static_cast<double>(j - i)),
                  static_cast<double>(bound) + 1e-6)
            << g.path(t) << " v=" << values[i];
        i = j;
      }
      // A value between two distinct neighbours estimates, never crashes.
      EXPECT_GE(s.EstimateEqRows(values.front() - 0.5), 0.0);
    }
  }
  // The corpora must actually exercise the histogram path.
  EXPECT_GE(columns_checked, 2u);
}

// String equality reads the dictionary postings directly: the selectivity
// is exact, and zero for terms that were never interned.
TEST(CardinalityTest, StringEqualitySelectivityIsExact) {
  workload::BooksOptions opts;
  opts.seed = 11;
  opts.num_books = 200;
  xml::Document doc = workload::GenerateBooks(opts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  const dg::DataGuide& g = stored.dataguide();

  size_t columns_checked = 0;
  for (dg::TypeId t = 0; t < g.num_types(); ++t) {
    const idx::TypeColumn* col = stored.value_index().Column(t);
    if (col == nullptr || col->term_ids.empty()) continue;
    ++columns_checked;
    const double n = static_cast<double>(col->term_ids.size());

    // Every interned term of this column: selectivity == postings / rows.
    for (const auto& [term, rows] : col->postings) {
      ValueLiteral lit;
      lit.text = std::string(col->dict->term(term));
      lit.numeric = idx::ParseNumber(lit.text, &lit.num);
      if (lit.numeric) continue;  // numeric equality goes to the histogram
      double sel = CardinalityEstimator::ColumnSelectivity(
          *col, CompareOp::kEq, lit);
      EXPECT_DOUBLE_EQ(sel, static_cast<double>(rows.size()) / n)
          << g.path(t) << " term=" << lit.text;
      double ne = CardinalityEstimator::ColumnSelectivity(
          *col, CompareOp::kNe, lit);
      EXPECT_NEAR(ne, 1.0 - sel, 1e-12);
    }

    ValueLiteral absent;
    absent.text = "no-such-interned-term";
    EXPECT_DOUBLE_EQ(CardinalityEstimator::ColumnSelectivity(
                         *col, CompareOp::kEq, absent),
                     0.0);
  }
  EXPECT_GE(columns_checked, 2u);
}

// Structural cardinalities come from the materialized per-type instance
// lists: exact, for every type and for predicate-free paths.
TEST(CardinalityTest, StructuralCountsAreExact) {
  xml::Document doc = testutil::PaperFigure2();
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  CardinalityEstimator card(stored);
  const dg::DataGuide& g = stored.dataguide();
  for (dg::TypeId t = 0; t < g.num_types(); ++t) {
    EXPECT_EQ(card.TypeCount(t),
              static_cast<double>(stored.NodeIdsOfType(t).size()))
        << g.path(t);
  }
  for (const char* path : {"//book", "//book/title", "/data/book",
                           "//author//name", "//publisher/location"}) {
    auto parsed = ParsePath(path);
    ASSERT_TRUE(parsed.ok()) << path;
    auto truth = EvalNav(doc, path);
    ASSERT_TRUE(truth.ok()) << path;
    EXPECT_DOUBLE_EQ(card.EstimateResultRows(*parsed),
                     static_cast<double>(truth->size()))
        << path;
  }
}

// ---------------------------------------------------------------------------
// Zone-map admissibility units.

TEST(ZoneMapTest, BlockAdmissibilityMirrorsPredicateSemantics) {
  idx::ColumnStats s;
  s.zone_min = {10.0, std::numeric_limits<double>::infinity()};
  s.zone_max = {20.0, -std::numeric_limits<double>::infinity()};
  s.zone_term_min = {5, idx::kNoTerm};
  s.zone_term_max = {9, 0};

  ValueLiteral num;
  num.text = "25";
  num.numeric = true;
  num.num = 25;
  // Block 0 holds values [10, 20]: a >= 25 scan skips it, <= 25 must not.
  EXPECT_FALSE(ZoneBlockCanMatch(s, 0, CompareOp::kGe, num, idx::kNoTerm));
  EXPECT_TRUE(ZoneBlockCanMatch(s, 0, CompareOp::kLe, num, idx::kNoTerm));
  EXPECT_FALSE(ZoneBlockCanMatch(s, 0, CompareOp::kEq, num, idx::kNoTerm));
  num.num = 15;
  num.text = "15";
  EXPECT_TRUE(ZoneBlockCanMatch(s, 0, CompareOp::kEq, num, idx::kNoTerm));
  // Block 1 holds no numeric row at all: every relational scan skips it.
  EXPECT_FALSE(ZoneBlockCanMatch(s, 1, CompareOp::kGt, num, idx::kNoTerm));
  // != never skips — a block full of equal values still fails to prove
  // the absence of a mismatch elsewhere in the row range semantics.
  EXPECT_TRUE(ZoneBlockCanMatch(s, 0, CompareOp::kNe, num, idx::kNoTerm));

  // String equality skips on the interned term-id bounds.
  ValueLiteral str;
  str.text = "w";
  EXPECT_TRUE(ZoneBlockCanMatch(s, 0, CompareOp::kEq, str, 7));
  EXPECT_FALSE(ZoneBlockCanMatch(s, 0, CompareOp::kEq, str, 3));
  EXPECT_FALSE(ZoneBlockCanMatch(s, 0, CompareOp::kEq, str, idx::kNoTerm));
}

// ---------------------------------------------------------------------------
// The differential: whatever plan and strategies the cost model picks, at
// any thread count, results are byte-identical to one-node-at-a-time
// evaluation. The cost model only moves work, never answers.

void ExpectCostModelIsPureOptimization(
    storage::StoredDocument stored, const std::vector<std::string>& paths) {
  auto shared =
      std::make_shared<const storage::StoredDocument>(std::move(stored));
  QueryEngine engine(shared);
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    auto baseline = testutil::EvalPerNode(*shared, path);
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    for (int threads : {1, 2, 8}) {
      auto r = engine.Execute(path, {.threads = threads});
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->node_ids(), *baseline) << "threads=" << threads;
    }
  }
}

TEST(CostModelDifferentialTest, BooksAnswersIdenticalOnOff) {
  workload::BooksOptions opts;
  opts.seed = 5;
  opts.num_books = 150;
  xml::Document doc = workload::GenerateBooks(opts);
  std::string title = FirstValue(doc, "//title");
  std::string name = FirstValue(doc, "//name");
  ExpectCostModelIsPureOptimization(
      storage::StoredDocument::Build(doc),
      {
          "//book/title",
          "/data/book[2]/title",
          "//author//name",
          "//book[title = \"" + title + "\"]",
          "//book[title != \"" + title + "\"]",
          "//book[@year >= 1990]",
          "//book[@year < 1985]/title",
          "//book[author/name = \"" + name + "\"]",
          "//book[contains(title, \"a\")]",
      });
}

TEST(CostModelDifferentialTest, AuctionsAnswersIdenticalOnOff) {
  xml::Document doc = workload::GenerateAuctions({});
  std::string city = FirstValue(doc, "//city");
  ExpectCostModelIsPureOptimization(
      storage::StoredDocument::Build(doc),
      {
          "//item/name",
          "//auction[bidder/price]/itemref",
          "//bidder[price >= 50]",
          "//auction[bidder/price > 25]/itemref",
          "//person[city = \"" + city + "\"]",
      });
}

// ---------------------------------------------------------------------------
// Deterministic zone-map data skipping.

// Eight <chunk> elements each holding 2560 sequential <id> values: the id
// column is perfectly clustered, so a high-selectivity range predicate
// admits blocks only inside the last chunk. The cost model must choose the
// zone-skipped scan-probe strategy here (the witness build would
// materialize every matching row; the existential scan touches almost
// nothing), and the skip counter must show the early chunks' blocks were
// never read.
TEST(ZoneMapTest, ClusteredRangeScanSkipsColdBlocks) {
  std::string xml = "<db>";
  int v = 0;
  for (int c = 0; c < 8; ++c) {
    xml += "<chunk>";
    for (int i = 0; i < 2560; ++i) {
      xml += "<id>" + std::to_string(v++) + "</id>";
    }
    xml += "</chunk>";
  }
  xml += "</db>";
  auto parsed = xml::Parse(xml);
  ASSERT_TRUE(parsed.ok());
  auto stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(*parsed));

  QueryEngine engine(stored);
  const std::string query = "//chunk[id >= 20000]";
  auto on = engine.Execute(query, {.collect_stats = true});
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_EQ(on->node_ids().size(), 1u);  // only the last chunk survives
  EXPECT_GT(on->stats().est_rows, 0u);
  // Chunks 0..6 hold only values < 20000; each contributes 10 zone blocks
  // whose zone_max rules them out. Allow slack for strategy boundaries but
  // demand real skipping.
  EXPECT_GE(on->stats().zone_map_skips, 50u) << on->stats().ToJson();

  auto per_node = testutil::EvalPerNode(*stored, query);
  ASSERT_TRUE(per_node.ok()) << per_node.status();
  EXPECT_EQ(*per_node, on->node_ids());
}

}  // namespace
}  // namespace vpbn::query
