#include "pbn/structural_join.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "pbn/axis.h"
#include "pbn/numbering.h"
#include "storage/stored_document.h"
#include "tests/test_util.h"
#include "workload/books.h"

namespace vpbn::num {
namespace {

/// Quadratic reference implementation.
std::vector<JoinPair> NaiveJoin(const std::vector<Pbn>& ancestors,
                                const std::vector<Pbn>& descendants,
                                bool parent_only) {
  std::vector<JoinPair> out;
  for (size_t d = 0; d < descendants.size(); ++d) {
    for (size_t a = 0; a < ancestors.size(); ++a) {
      bool hit = parent_only
                     ? IsParent(ancestors[a], descendants[d])
                     : IsAncestor(ancestors[a], descendants[d]);
      if (hit) out.push_back(JoinPair{a, d});
    }
  }
  return out;
}

void SortPairs(std::vector<JoinPair>* pairs) {
  std::sort(pairs->begin(), pairs->end(),
            [](const JoinPair& x, const JoinPair& y) {
              return std::tie(x.descendant_index, x.ancestor_index) <
                     std::tie(y.descendant_index, y.ancestor_index);
            });
}

TEST(StructuralJoinTest, SimpleAncestorDescendant) {
  std::vector<Pbn> ancestors = {{1, 1}, {1, 2}};
  std::vector<Pbn> descendants = {{1, 1, 1}, {1, 1, 2, 1}, {1, 2, 3}, {2}};
  auto pairs = AncestorDescendantJoin(ancestors, descendants);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (JoinPair{0, 0}));
  EXPECT_EQ(pairs[1], (JoinPair{0, 1}));
  EXPECT_EQ(pairs[2], (JoinPair{1, 2}));
}

TEST(StructuralJoinTest, NestedAncestorsAllReported) {
  std::vector<Pbn> ancestors = {{1}, {1, 1}, {1, 1, 1}};
  std::vector<Pbn> descendants = {{1, 1, 1, 1}};
  auto pairs = AncestorDescendantJoin(ancestors, descendants);
  ASSERT_EQ(pairs.size(), 3u);
  // Outermost first.
  EXPECT_EQ(pairs[0].ancestor_index, 0u);
  EXPECT_EQ(pairs[2].ancestor_index, 2u);
}

TEST(StructuralJoinTest, ParentChildOnlyDirect) {
  std::vector<Pbn> parents = {{1}, {1, 1}};
  std::vector<Pbn> children = {{1, 1}, {1, 1, 1}, {1, 2}};
  auto pairs = ParentChildJoin(parents, children);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (JoinPair{0, 0}));  // 1 -> 1.1
  EXPECT_EQ(pairs[1], (JoinPair{1, 1}));  // 1.1 -> 1.1.1
  EXPECT_EQ(pairs[2], (JoinPair{0, 2}));  // 1 -> 1.2
}

TEST(StructuralJoinTest, SelfIsNotAncestor) {
  std::vector<Pbn> list = {{1, 1}};
  EXPECT_TRUE(AncestorDescendantJoin(list, list).empty());
}

TEST(StructuralJoinTest, EmptyInputs) {
  std::vector<Pbn> some = {{1}};
  EXPECT_TRUE(AncestorDescendantJoin({}, some).empty());
  EXPECT_TRUE(AncestorDescendantJoin(some, {}).empty());
  EXPECT_TRUE(ParentChildJoin({}, {}).empty());
}

TEST(StructuralJoinTest, TypeIndexJoinMatchesQuery) {
  // Join book ancestors with name descendants over the real type index.
  xml::Document doc = testutil::PaperFigure2();
  auto stored = storage::StoredDocument::Build(doc);
  auto book = stored.dataguide().FindByPath("data.book").value();
  auto name = stored.dataguide().FindByPath("data.book.author.name").value();
  const std::vector<Pbn> books =
      stored.PackedNodesOfType(book).MaterializeAll();
  const std::vector<Pbn> names =
      stored.PackedNodesOfType(name).MaterializeAll();
  auto pairs = AncestorDescendantJoin(books, names);
  ASSERT_EQ(pairs.size(), 2u);  // one name per book
  EXPECT_EQ(books[pairs[0].ancestor_index].ToString(), "1.1");
  EXPECT_EQ(names[pairs[0].descendant_index].ToString(), "1.1.2.1");
}

class JoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinPropertyTest, MatchesNaiveOnRandomTypePairs) {
  workload::BooksOptions opts;
  opts.seed = GetParam();
  opts.num_books = 40;
  xml::Document doc = workload::GenerateBooks(opts);
  auto stored = storage::StoredDocument::Build(doc);
  const dg::DataGuide& g = stored.dataguide();
  std::vector<std::vector<Pbn>> numbers;
  for (dg::TypeId t = 0; t < g.num_types(); ++t) {
    numbers.push_back(stored.PackedNodesOfType(t).MaterializeAll());
  }
  for (dg::TypeId a = 0; a < g.num_types(); ++a) {
    for (dg::TypeId d = 0; d < g.num_types(); ++d) {
      auto fast = AncestorDescendantJoin(numbers[a], numbers[d]);
      auto naive = NaiveJoin(numbers[a], numbers[d], false);
      SortPairs(&fast);
      SortPairs(&naive);
      ASSERT_EQ(fast, naive) << g.path(a) << " vs " << g.path(d);

      auto fast_pc = ParentChildJoin(numbers[a], numbers[d]);
      auto naive_pc = NaiveJoin(numbers[a], numbers[d], true);
      SortPairs(&fast_pc);
      SortPairs(&naive_pc);
      ASSERT_EQ(fast_pc, naive_pc) << g.path(a) << " vs " << g.path(d);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPropertyTest, ::testing::Values(1, 2, 3));

TEST(StructuralJoinTest, RandomForestMixedLists) {
  // Lists drawn across types (any sorted PBN lists are valid inputs).
  Rng rng(555);
  xml::Document doc = testutil::RandomForest(9, 150);
  Numbering numbering = Numbering::Number(doc);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Pbn> list_a, list_d;
    for (xml::NodeId id = 0; id < doc.num_nodes(); ++id) {
      if (rng.Bernoulli(0.3)) list_a.push_back(numbering.OfNode(id));
      if (rng.Bernoulli(0.3)) list_d.push_back(numbering.OfNode(id));
    }
    std::sort(list_a.begin(), list_a.end());
    std::sort(list_d.begin(), list_d.end());
    auto fast = AncestorDescendantJoin(list_a, list_d);
    auto naive = NaiveJoin(list_a, list_d, false);
    SortPairs(&fast);
    SortPairs(&naive);
    ASSERT_EQ(fast, naive) << trial;
  }
}

}  // namespace
}  // namespace vpbn::num
