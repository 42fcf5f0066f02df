#include "pbn/numbering.h"

#include <gtest/gtest.h>

#include "xml/builder.h"
#include "xml/parser.h"

namespace vpbn::num {
namespace {

using xml::Document;
using xml::NodeId;

TEST(NumberingTest, PaperFigure8) {
  // Figure 8 gives the PBN numbers of the Figure 2 instance.
  auto doc = xml::Parse(R"(
    <data>
      <book><title>X</title>
        <author><name>C</name></author>
        <publisher><location>W</location></publisher>
      </book>
      <book><title>Y</title>
        <author><name>D</name></author>
        <publisher><location>M</location></publisher>
      </book>
    </data>)");
  ASSERT_TRUE(doc.ok());
  Numbering n = Numbering::Number(*doc);

  auto pbn_of_path = [&](std::initializer_list<int> path) {
    NodeId cur = doc->roots()[0];
    for (int ordinal : path) {
      cur = doc->Children(cur)[ordinal - 1];
    }
    return n.OfNode(cur).ToString();
  };

  EXPECT_EQ(pbn_of_path({}), "1");                // <data>
  EXPECT_EQ(pbn_of_path({1}), "1.1");             // first <book>
  EXPECT_EQ(pbn_of_path({2}), "1.2");             // second <book>
  EXPECT_EQ(pbn_of_path({1, 1}), "1.1.1");        // <title>X
  EXPECT_EQ(pbn_of_path({1, 2}), "1.1.2");        // <author>
  EXPECT_EQ(pbn_of_path({1, 3}), "1.1.3");        // <publisher>
  EXPECT_EQ(pbn_of_path({1, 2, 1}), "1.1.2.1");   // <name>
  EXPECT_EQ(pbn_of_path({1, 2, 1, 1}), "1.1.2.1.1");  // "C"
  EXPECT_EQ(pbn_of_path({2, 2, 1, 1}), "1.2.2.1.1");  // "D"
  EXPECT_EQ(pbn_of_path({2, 3, 1}), "1.2.3.1");   // <location>
}

TEST(NumberingTest, ForestRootsNumbered) {
  Document doc;
  doc.AddElement("a", xml::kNullNode);
  doc.AddElement("b", xml::kNullNode);
  NodeId c = doc.AddElement("c", doc.roots()[1]);
  Numbering n = Numbering::Number(doc);
  EXPECT_EQ(n.OfNode(doc.roots()[0]).ToString(), "1");
  EXPECT_EQ(n.OfNode(doc.roots()[1]).ToString(), "2");
  EXPECT_EQ(n.OfNode(c).ToString(), "2.1");
}

TEST(NumberingTest, TextNodesAreNumbered) {
  xml::DocumentBuilder b;
  b.Open("t").Text("one").Open("b").Close().Text("two").Close();
  Document doc = std::move(b).Finish();
  Numbering n = Numbering::Number(doc);
  std::vector<NodeId> kids = doc.Children(doc.roots()[0]);
  EXPECT_EQ(n.OfNode(kids[0]).ToString(), "1.1");
  EXPECT_EQ(n.OfNode(kids[1]).ToString(), "1.2");
  EXPECT_EQ(n.OfNode(kids[2]).ToString(), "1.3");
}

TEST(NumberingTest, LengthEqualsDepth) {
  xml::DocumentBuilder b;
  b.Open("a").Open("b").Open("c").Leaf("d", "x").Close().Close().Close();
  Document doc = std::move(b).Finish();
  Numbering n = Numbering::Number(doc);
  for (NodeId id = 0; id < doc.num_nodes(); ++id) {
    EXPECT_EQ(n.OfNode(id).length(), doc.Depth(id)) << id;
  }
}

TEST(NumberingTest, OrdinalMatchesSiblingPosition) {
  xml::DocumentBuilder b;
  b.Open("p");
  for (int i = 0; i < 10; ++i) b.Open("c").Close();
  b.Close();
  Document doc = std::move(b).Finish();
  Numbering n = Numbering::Number(doc);
  std::vector<NodeId> kids = doc.Children(doc.roots()[0]);
  for (size_t i = 0; i < kids.size(); ++i) {
    const Pbn& p = n.OfNode(kids[i]);
    EXPECT_EQ(p.at1(p.length()), i + 1);
  }
}

TEST(NumberingTest, AllNumbersDistinct) {
  xml::DocumentBuilder b;
  b.Open("r");
  for (int i = 0; i < 5; ++i) {
    b.Open("x");
    for (int j = 0; j < 4; ++j) b.Leaf("y", "t");
    b.Close();
  }
  b.Close();
  Document doc = std::move(b).Finish();
  Numbering n = Numbering::Number(doc);
  std::set<std::string> seen;
  for (NodeId id = 0; id < doc.num_nodes(); ++id) {
    EXPECT_TRUE(seen.insert(n.OfNode(id).ToString()).second);
  }
  EXPECT_EQ(seen.size(), doc.num_nodes());
}

TEST(NumberingTest, MemoryUsageScalesWithNodes) {
  xml::DocumentBuilder b1;
  b1.Open("a").Close();
  Document d1 = std::move(b1).Finish();
  xml::DocumentBuilder b2;
  b2.Open("a");
  for (int i = 0; i < 100; ++i) b2.Open("b").Close();
  b2.Close();
  Document d2 = std::move(b2).Finish();
  EXPECT_GT(Numbering::Number(d2).NumbersMemoryUsage(),
            Numbering::Number(d1).NumbersMemoryUsage());
}

}  // namespace
}  // namespace vpbn::num
