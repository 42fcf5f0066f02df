/// \file theorem1_property_test.cc
/// \brief Property tests for Theorem 1 (§5.3) and its analogues: every
/// virtual axis predicate must coincide with the physical relationship in
/// the *materialized* virtual document.
///
/// The materializer places nodes by the least-common-ancestor relation on
/// the original tree, independently of level arrays, so it is a genuine
/// oracle for the containment axes. A virtual node may be materialized as
/// several copies (duplication through shared LCAs); the oracle is
/// exists-quantified over copies, which is exactly the information content
/// of a number-only predicate. For the document-order axes the comparison
/// is restricted to runs without duplication, where physical order is
/// unambiguous.

#include <gtest/gtest.h>

#include <map>

#include "pbn/axis.h"
#include "tests/test_util.h"
#include "vpbn/materializer.h"

namespace vpbn::virt {
namespace {

using num::Axis;
using xml::NodeId;

struct VNodeLess {
  bool operator()(const VirtualNode& a, const VirtualNode& b) const {
    return a.node != b.node ? a.node < b.node : a.vtype < b.vtype;
  }
};

struct Oracle {
  xml::Document doc;  // materialized
  std::map<VirtualNode, std::vector<NodeId>, VNodeLess> copies;
  std::vector<size_t> order_pos;  // doc-order position by id

  explicit Oracle(Materialized m) : doc(std::move(m.doc)) {
    for (NodeId id = 0; id < doc.num_nodes(); ++id) {
      copies[m.provenance[id]].push_back(id);
    }
    order_pos.resize(doc.num_nodes());
    std::vector<NodeId> order = doc.DocumentOrder();
    for (size_t i = 0; i < order.size(); ++i) order_pos[order[i]] = i;
  }

  bool HasCopy(const VirtualNode& v) const { return copies.count(v) > 0; }

  bool Duplicated() const {
    for (const auto& [v, c] : copies) {
      if (c.size() > 1) return true;
    }
    return false;
  }

  bool PhysRel(Axis axis, NodeId x, NodeId y) const {
    switch (axis) {
      case Axis::kSelf:
        return x == y;
      case Axis::kChild:
        return doc.parent(x) == y;
      case Axis::kParent:
        return doc.parent(y) == x;
      case Axis::kAncestor:
        return doc.IsAncestor(x, y);
      case Axis::kDescendant:
        return doc.IsAncestor(y, x);
      case Axis::kAncestorOrSelf:
        return x == y || doc.IsAncestor(x, y);
      case Axis::kDescendantOrSelf:
        return x == y || doc.IsAncestor(y, x);
      case Axis::kFollowing:
        return order_pos[x] > order_pos[y] && !doc.IsAncestor(y, x);
      case Axis::kPreceding:
        return order_pos[x] < order_pos[y] && !doc.IsAncestor(x, y);
      case Axis::kFollowingSibling:
        return doc.parent(x) == doc.parent(y) && x != y &&
               order_pos[x] > order_pos[y];
      case Axis::kPrecedingSibling:
        return doc.parent(x) == doc.parent(y) && x != y &&
               order_pos[x] < order_pos[y];
      case Axis::kAttribute:
        return false;
    }
    return false;
  }

  /// Exists-quantified over copies of both virtual nodes.
  bool ExistsRel(Axis axis, const VirtualNode& x, const VirtualNode& y) const {
    auto xc = copies.find(x);
    auto yc = copies.find(y);
    if (xc == copies.end() || yc == copies.end()) return false;
    for (NodeId cx : xc->second) {
      for (NodeId cy : yc->second) {
        if (PhysRel(axis, cx, cy)) return true;
      }
    }
    return false;
  }
};

constexpr Axis kContainmentAxes[] = {
    Axis::kSelf,           Axis::kChild,
    Axis::kParent,         Axis::kAncestor,
    Axis::kDescendant,     Axis::kAncestorOrSelf,
    Axis::kDescendantOrSelf};

constexpr Axis kOrderAxes[] = {Axis::kFollowing, Axis::kPreceding,
                               Axis::kFollowingSibling,
                               Axis::kPrecedingSibling};

/// Checks all predicates on every virtual node pair against the oracle.
void CheckAgainstOracle(const storage::StoredDocument& stored,
                        std::string_view spec) {
  SCOPED_TRACE(std::string(spec));
  auto vr = VirtualDocument::Open(stored, spec);
  ASSERT_TRUE(vr.ok()) << vr.status();
  const VirtualDocument& vdoc = *vr;
  auto mr = Materialize(vdoc);
  ASSERT_TRUE(mr.ok()) << mr.status();
  Oracle oracle(std::move(mr).ValueUnsafe());
  bool duplicated = oracle.Duplicated();

  // Enumerate all virtual nodes with at least one materialized copy
  // (orphans have no physical counterpart to compare against).
  std::vector<VirtualNode> all;
  for (vdg::VTypeId t = 0; t < vdoc.vguide().num_vtypes(); ++t) {
    for (const VirtualNode& v : vdoc.NodesOfVType(t)) {
      if (oracle.HasCopy(v)) all.push_back(v);
    }
  }

  const VpbnSpace& space = vdoc.space();
  for (const VirtualNode& x : all) {
    for (const VirtualNode& y : all) {
      Vpbn vx(stored.numbering().OfNode(x.node), x.vtype);
      Vpbn vy(stored.numbering().OfNode(y.node), y.vtype);
      for (Axis axis : kContainmentAxes) {
        EXPECT_EQ(space.VCheckAxis(axis, vx, vy),
                  oracle.ExistsRel(axis, x, y))
            << num::AxisToString(axis) << " x=" << space.ToString(vx)
            << " y=" << space.ToString(vy);
      }
      for (Axis axis : kOrderAxes) {
        bool predicted = space.VCheckAxis(axis, vx, vy);
        bool exists = oracle.ExistsRel(axis, x, y);
        if (duplicated) {
          // With copies, order predicates may be satisfied by one copy pair
          // and refuted by another; the predicate must still be *witnessed*.
          if (predicted) {
            EXPECT_TRUE(exists)
                << num::AxisToString(axis) << " x=" << space.ToString(vx)
                << " y=" << space.ToString(vy);
          }
        } else {
          EXPECT_EQ(predicted, exists)
              << num::AxisToString(axis) << " x=" << space.ToString(vx)
              << " y=" << space.ToString(vy);
        }
      }
    }
  }
}

TEST(Theorem1Test, SamTransformation) {
  xml::Document doc = testutil::PaperFigure2();
  auto stored = storage::StoredDocument::Build(doc);
  CheckAgainstOracle(stored, testutil::SamSpec());
}

TEST(Theorem1Test, PaperFixtureSpecs) {
  xml::Document doc = testutil::PaperFigure2();
  auto stored = storage::StoredDocument::Build(doc);
  const char* specs[] = {
      "data { ** }",                            // identity
      "title { author { name } }",              // Sam's view (cases 1 & 3)
      "title { name { author } }",              // the paper's inversion
      "name { author { book } }",               // chained case 2
      "book { location title }",                // deep pull-up (case 1)
      "location { name { title } }",            // cross-branch case 3
      "title { publisher { location } }",       // siblings via lca
      "book { * }",                             // star expansion
      "book { title * }",                       // mixed star
      "title author",                           // forest of two trees
      "data { book { author { name } title } }" // reordered identity-ish
  };
  for (const char* spec : specs) {
    CheckAgainstOracle(stored, spec);
  }
}

TEST(Theorem1Test, DuplicationInstance) {
  auto parsed = xml::Parse(
      "<data><book><title>A</title><title>B</title>"
      "<author><name>N</name></author>"
      "<author><name>M</name></author></book>"
      "<book><title>C</title><author><name>K</name></author></book></data>");
  ASSERT_TRUE(parsed.ok());
  auto stored = storage::StoredDocument::Build(*parsed);
  CheckAgainstOracle(stored, "title { author { name } }");
  CheckAgainstOracle(stored, "name { title }");
}

TEST(Theorem1Test, OrphanInstance) {
  auto parsed = xml::Parse(
      "<data><book><title>T</title><author><name>N1</name></author></book>"
      "<book><author><name>N2</name></author></book>"
      "<book><title>U</title></book></data>");
  ASSERT_TRUE(parsed.ok());
  auto stored = storage::StoredDocument::Build(*parsed);
  CheckAgainstOracle(stored, "title { author { name } }");
}

/// Random documents with a library-like schema, random re-hierarchizations.
class Theorem1PropertyTest : public ::testing::TestWithParam<uint64_t> {};

xml::Document RandomLibrary(uint64_t seed) {
  Rng rng(seed);
  xml::DocumentBuilder b;
  b.Open("lib");
  int n_shelves = 1 + static_cast<int>(rng.Uniform(3));
  for (int s = 0; s < n_shelves; ++s) {
    b.Open("shelf");
    int n_books = static_cast<int>(rng.Uniform(4));
    for (int k = 0; k < n_books; ++k) {
      b.Open("book");
      if (rng.Bernoulli(0.8)) b.Leaf("title", "t" + std::to_string(k));
      int n_authors = static_cast<int>(rng.Uniform(3));
      for (int a = 0; a < n_authors; ++a) {
        b.Open("author").Leaf("name", "n" + std::to_string(a)).Close();
      }
      if (rng.Bernoulli(0.5)) {
        b.Open("publisher").Leaf("location", "loc").Close();
      }
      b.Close();
    }
    b.Close();
  }
  b.Close();
  return std::move(b).Finish();
}

TEST_P(Theorem1PropertyTest, RandomLibraryRandomSpecs) {
  uint64_t seed = GetParam();
  xml::Document doc = RandomLibrary(seed);
  auto stored = storage::StoredDocument::Build(doc);
  const char* specs[] = {
      "lib { ** }",
      "title { author { name } }",
      "name { author { book { shelf } } }",
      "shelf { title { location } }",
      "book { name }",
      "location { title }",
      "author { title publisher }",
  };
  for (const char* spec : specs) {
    // Some specs may not resolve on sparse random instances (a type absent
    // from the document); skip those.
    auto v = VirtualDocument::Open(stored, spec);
    if (!v.ok()) continue;
    CheckAgainstOracle(stored, spec);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1PropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

}  // namespace
}  // namespace vpbn::virt
