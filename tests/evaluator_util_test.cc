#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "query/evaluator.h"
#include "tests/test_util.h"
#include "vpbn/virtual_document.h"
#include "workload/books.h"
#include "workload/random_trees.h"

namespace vpbn::query {
namespace {

TEST(ToNumberTest, ParsesPlainNumbers) {
  double v = 0;
  EXPECT_TRUE(ToNumber("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ToNumber("-3.5", &v));
  EXPECT_EQ(v, -3.5);
  EXPECT_TRUE(ToNumber("0", &v));
  EXPECT_EQ(v, 0);
}

TEST(ToNumberTest, TrimsWhitespace) {
  double v = 0;
  EXPECT_TRUE(ToNumber("  7 ", &v));
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(ToNumber("\n1994\t", &v));
  EXPECT_EQ(v, 1994);
}

TEST(ToNumberTest, RejectsNonNumbers) {
  double v = 0;
  EXPECT_FALSE(ToNumber("", &v));
  EXPECT_FALSE(ToNumber("   ", &v));
  EXPECT_FALSE(ToNumber("12x", &v));
  EXPECT_FALSE(ToNumber("x12", &v));
  EXPECT_FALSE(ToNumber("1.2.3", &v));
}

TEST(CompareValuesTest, NumericWhenBothNumeric) {
  EXPECT_TRUE(CompareValues("9", CompareOp::kLt, "10"));
  EXPECT_FALSE(CompareValues("9", CompareOp::kGt, "10"));
  EXPECT_TRUE(CompareValues("2.5", CompareOp::kGe, "2.5"));
  EXPECT_TRUE(CompareValues("-1", CompareOp::kLt, "0"));
  EXPECT_TRUE(CompareValues("1994", CompareOp::kNe, "2001"));
}

TEST(CompareValuesTest, StringEqualityOtherwise) {
  // Non-numeric operands compare as strings for = and !=.
  EXPECT_TRUE(CompareValues("same", CompareOp::kEq, "same"));
  EXPECT_FALSE(CompareValues("same", CompareOp::kEq, "other"));
  EXPECT_TRUE(CompareValues("a", CompareOp::kNe, "b"));
  EXPECT_FALSE(CompareValues("a", CompareOp::kNe, "a"));
}

TEST(CompareValuesTest, RelationalRequiresNumbers) {
  // XPath 1.0: < <= > >= convert both sides to numbers; a non-numeric
  // side becomes NaN and every comparison with NaN is false. No
  // lexicographic fallback.
  EXPECT_FALSE(CompareValues("10x", CompareOp::kLt, "9"));
  EXPECT_FALSE(CompareValues("9", CompareOp::kLt, "10x"));
  EXPECT_FALSE(CompareValues("apple", CompareOp::kLt, "banana"));
  EXPECT_FALSE(CompareValues("banana", CompareOp::kGt, "apple"));
  EXPECT_FALSE(CompareValues("b", CompareOp::kGe, "a"));
  EXPECT_FALSE(CompareValues("a", CompareOp::kLe, "a"));
}

TEST(OrderLessTest, NumericThenLexicographic) {
  // XQuery order-by: numeric when both keys parse, lexicographic
  // otherwise — distinct from CompareValues' predicate semantics.
  EXPECT_TRUE(OrderLess("9", "10"));
  EXPECT_FALSE(OrderLess("10", "9"));
  EXPECT_TRUE(OrderLess("apple", "banana"));
  EXPECT_FALSE(OrderLess("banana", "apple"));
  EXPECT_TRUE(OrderLess("10x", "9x"));  // non-numeric: lexicographic
  EXPECT_FALSE(OrderLess("a", "a"));
}

/// Regression: mixing `*`/`**` expansions with explicit cross-branch labels
/// under one parent used to make the ordinal-scan-then-type-order
/// comparator intransitive (cycle (8,7) < (20,1) < (5,3) < (52,2) < (8,7)
/// on this exact configuration). The level-segment comparator must order
/// these nodes totally.
TEST(VCompareProperty, StarExpansionCycleRegression) {
  workload::RandomTreeOptions topts;
  topts.seed = 1;
  topts.num_nodes = 120;
  topts.num_labels = 5;
  topts.text_prob = 0.25;
  xml::Document doc = workload::GenerateRandomTree(topts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  workload::RandomSpecOptions sopts;
  sopts.seed = 106;
  sopts.num_types = 5;
  sopts.star_prob = 0.4;
  std::string spec = workload::GenerateRandomSpec(stored.dataguide(), sopts);
  auto v = virt::VirtualDocument::Open(stored, spec);
  ASSERT_TRUE(v.ok()) << v.status();
  std::vector<virt::VirtualNode> nodes;
  for (vdg::VTypeId t = 0; t < v->vguide().num_vtypes(); ++t) {
    for (const auto& n : v->NodesOfVType(t)) nodes.push_back(n);
  }
  const virt::VpbnSpace& space = v->space();
  std::vector<uint32_t> abuf, bbuf;
  auto less = [&](const virt::VirtualNode& a, const virt::VirtualNode& b) {
    return space.VCompare(v->VpbnOf(a, &abuf), v->VpbnOf(b, &bbuf)) ==
           std::weak_ordering::less;
  };
  for (const auto& a : nodes) {
    for (const auto& b : nodes) {
      if (!less(a, b)) continue;
      EXPECT_FALSE(less(b, a));
      for (const auto& c : nodes) {
        if (less(b, c)) {
          ASSERT_TRUE(less(a, c));
        }
      }
    }
  }
}

/// VCompare must be a strict weak ordering — std::sort demands it. Verify
/// antisymmetry and transitivity over every triple of a real node sample.
TEST(VCompareProperty, StrictWeakOrderingOnSamViewNodes) {
  workload::BooksOptions opts;
  opts.seed = 12;
  opts.num_books = 12;
  xml::Document doc = workload::GenerateBooks(opts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  auto v = virt::VirtualDocument::Open(stored, "title { author { name } }");
  ASSERT_TRUE(v.ok());

  std::vector<virt::VirtualNode> nodes;
  for (vdg::VTypeId t = 0; t < v->vguide().num_vtypes(); ++t) {
    for (const auto& n : v->NodesOfVType(t)) nodes.push_back(n);
  }
  ASSERT_GE(nodes.size(), 30u);
  const virt::VpbnSpace& space = v->space();
  std::vector<uint32_t> abuf, bbuf;
  auto less = [&](const virt::VirtualNode& a, const virt::VirtualNode& b) {
    return space.VCompare(v->VpbnOf(a, &abuf), v->VpbnOf(b, &bbuf)) ==
           std::weak_ordering::less;
  };
  // Antisymmetry.
  for (const auto& a : nodes) {
    EXPECT_FALSE(less(a, a));
    for (const auto& b : nodes) {
      if (less(a, b)) {
        EXPECT_FALSE(less(b, a));
      }
    }
  }
  // Transitivity over a bounded triple sample.
  Rng rng(7);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto& a = nodes[rng.Uniform(nodes.size())];
    const auto& b = nodes[rng.Uniform(nodes.size())];
    const auto& c = nodes[rng.Uniform(nodes.size())];
    if (less(a, b) && less(b, c)) {
      ASSERT_TRUE(less(a, c));
    }
    // Equivalence transitivity: !less both ways is an equivalence.
    bool ab_eq = !less(a, b) && !less(b, a);
    bool bc_eq = !less(b, c) && !less(c, b);
    if (ab_eq && bc_eq) {
      ASSERT_TRUE(!less(a, c) && !less(c, a));
    }
  }
  // And std::sort succeeds (would be UB otherwise; run under sanitizers in
  // debug builds).
  std::vector<virt::VirtualNode> sorted = nodes;
  std::sort(sorted.begin(), sorted.end(), less);
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_FALSE(less(sorted[i], sorted[i - 1]));
  }
}

}  // namespace
}  // namespace vpbn::query
