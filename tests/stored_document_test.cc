#include "storage/stored_document.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "xml/serializer.h"

namespace vpbn::storage {
namespace {

using num::Pbn;

TEST(StoredDocumentTest, StoredStringIsCanonicalSerialization) {
  xml::Document doc = testutil::PaperFigure2();
  StoredDocument s = StoredDocument::Build(doc);
  EXPECT_EQ(s.stored_string(), xml::SerializeDocument(doc));
}

TEST(StoredDocumentTest, PaperSection6ValueExample) {
  // "Consider the value of the first <author> element in Figure 2. It is
  // the following string: <author><name>C</name></author>" at number 1.1.2.
  xml::Document doc = testutil::PaperFigure2();
  StoredDocument s = StoredDocument::Build(doc);
  xml::NodeId author = testutil::NodeAt(doc, Pbn{1, 1, 2});
  ASSERT_NE(author, xml::kNullNode);
  EXPECT_EQ(s.Value(author), "<author><name>C</name></author>");
}

TEST(StoredDocumentTest, ValueOfEveryNodeMatchesSubtreeSerialization) {
  xml::Document doc = testutil::PaperFigure2();
  StoredDocument s = StoredDocument::Build(doc);
  for (xml::NodeId id = 0; id < doc.num_nodes(); ++id) {
    EXPECT_EQ(s.Value(id), xml::SerializeNode(doc, id)) << id;
  }
}

TEST(StoredDocumentTest, ValueRangeNestsLikeTree) {
  xml::Document doc = testutil::PaperFigure2();
  StoredDocument s = StoredDocument::Build(doc);
  // Values are views into the stored string, so their byte ranges are
  // where the views sit inside it.
  const char* base = s.stored_string().data();
  std::string_view outer = s.Value(testutil::NodeAt(doc, Pbn{1, 1}));
  std::string_view inner = s.Value(testutil::NodeAt(doc, Pbn{1, 1, 2}));
  EXPECT_GE(inner.data() - base, outer.data() - base);
  EXPECT_LE(inner.data() + inner.size() - base,
            outer.data() + outer.size() - base);
}

TEST(StoredDocumentTest, ValueOfUnknownNumberIsNotFound) {
  xml::Document doc = testutil::PaperFigure2();
  StoredDocument s = StoredDocument::Build(doc);
  // No node has the number, and no type's arena holds it: the type index
  // is the only way from a number to a node.
  EXPECT_EQ(testutil::NodeAt(doc, Pbn{9, 9}), xml::kNullNode);
  num::PackedPbnList probe = num::PackedPbnList::FromPbns({Pbn{9, 9}});
  for (dg::TypeId t = 0; t < s.dataguide().num_types(); ++t) {
    auto [first, last] = s.TypeRangeWithin(t, probe[0]);
    EXPECT_EQ(first, last) << t;
  }
}

TEST(StoredDocumentTest, HeaderHasPbnAndTypeId) {
  xml::Document doc = testutil::PaperFigure2();
  StoredDocument s = StoredDocument::Build(doc);
  // The header is (type, row); the number sits at that row of the type's
  // packed arena.
  xml::NodeId author = testutil::NodeAt(doc, Pbn{1, 1, 2});
  ASSERT_NE(author, xml::kNullNode);
  dg::TypeId type = s.TypeOfNode(author);
  EXPECT_EQ(s.PackedNodesOfType(type).Materialize(s.RowOfNode(author)),
            (Pbn{1, 1, 2}));
  EXPECT_EQ(s.dataguide().path(type), "data.book.author");
}

TEST(StoredDocumentTest, TypeIndexInDocumentOrder) {
  xml::Document doc = testutil::PaperFigure2();
  StoredDocument s = StoredDocument::Build(doc);
  dg::TypeId book = s.dataguide().FindByPath("data.book").value();
  std::vector<Pbn> books = s.PackedNodesOfType(book).MaterializeAll();
  ASSERT_EQ(books.size(), 2u);
  EXPECT_EQ(books[0].ToString(), "1.1");
  EXPECT_EQ(books[1].ToString(), "1.2");
  dg::TypeId name_text =
      s.dataguide().FindByPath("data.book.author.name.#text").value();
  std::vector<Pbn> texts = s.PackedNodesOfType(name_text).MaterializeAll();
  ASSERT_EQ(texts.size(), 2u);
  EXPECT_EQ(texts[0].ToString(), "1.1.2.1.1");
  EXPECT_EQ(texts[1].ToString(), "1.2.2.1.1");
}

TEST(StoredDocumentTest, TypeRangeWithinScope) {
  xml::Document doc = testutil::PaperFigure2();
  StoredDocument s = StoredDocument::Build(doc);
  dg::TypeId name = s.dataguide().FindByPath("data.book.author.name").value();
  // The instances of `name` inside a scope, as NodeIds of the type index.
  auto within = [&](const Pbn& scope) {
    auto [first, last] = s.TypeRangeWithin(name, scope);
    const std::vector<xml::NodeId>& ids = s.NodeIdsOfType(name);
    return std::vector<xml::NodeId>(ids.begin() + first, ids.begin() + last);
  };
  // Within the first book only.
  auto in_book1 = within(Pbn{1, 1});
  ASSERT_EQ(in_book1.size(), 1u);
  EXPECT_EQ(in_book1[0], testutil::NodeAt(doc, Pbn{1, 1, 2, 1}));
  // Within the whole document.
  EXPECT_EQ(within(Pbn{1}).size(), 2u);
  // Within a scope that contains none.
  EXPECT_TRUE(within(Pbn{1, 1, 1}).empty());
  // Scope equal to a node of the type includes it (descendant-or-self).
  auto self_scope = within(Pbn{1, 1, 2, 1});
  ASSERT_EQ(self_scope.size(), 1u);
}

TEST(StoredDocumentTest, TypeOfNodeMatchesGuide) {
  xml::Document doc = testutil::PaperFigure2();
  StoredDocument s = StoredDocument::Build(doc);
  for (xml::NodeId id = 0; id < doc.num_nodes(); ++id) {
    dg::TypeId t = s.TypeOfNode(id);
    EXPECT_EQ(s.dataguide().length(t), doc.Depth(id));
  }
}

TEST(StoredDocumentTest, RandomDocumentValueIndexComplete) {
  xml::Document doc = testutil::RandomForest(31, 300);
  StoredDocument s = StoredDocument::Build(doc);
  for (xml::NodeId id = 0; id < doc.num_nodes(); ++id) {
    EXPECT_EQ(s.Value(id), xml::SerializeNode(doc, id));
  }
}

TEST(StoredDocumentTest, MemoryUsageIsPositiveAndGrows) {
  xml::Document small = testutil::RandomForest(1, 20);
  xml::Document large = testutil::RandomForest(1, 2000);
  size_t small_bytes = StoredDocument::Build(small).MemoryUsage();
  size_t large_bytes = StoredDocument::Build(large).MemoryUsage();
  EXPECT_GT(small_bytes, 0u);
  EXPECT_GT(large_bytes, small_bytes * 10);
}

}  // namespace
}  // namespace vpbn::storage
