/// \file catalog_test.cc
/// \brief The vpbnd catalog: named documents and views as immutable
/// epoch-stamped generations, with reloads that never disturb readers.

#include "server/catalog.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "query/engine.h"

namespace vpbn::server {
namespace {

constexpr const char* kBooksV1 =
    "<catalog><book><title>A</title></book>"
    "<book><title>B</title></book></catalog>";
constexpr const char* kBooksV2 =
    "<catalog><book><title>A</title></book>"
    "<book><title>B</title></book>"
    "<book><title>C</title></book></catalog>";

size_t CountTitles(const query::QueryEngine& engine) {
  auto r = engine.Execute("//book/title", {});
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r->size() : 0;
}

TEST(CatalogTest, AddFindAndQuery) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddDocumentXml("books", kBooksV1).ok());
  EXPECT_EQ(catalog.size(), 1u);

  auto entry = catalog.Find("books");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->name, "books");
  EXPECT_EQ(entry->epoch, 1u);  // first load is epoch 1
  EXPECT_EQ(entry->engine->epoch(), 1u);
  EXPECT_EQ(CountTitles(*entry->engine), 2u);

  EXPECT_EQ(catalog.Find("nope"), nullptr);
}

TEST(CatalogTest, DuplicateNameIsRejected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddDocumentXml("books", kBooksV1).ok());
  Status dup = catalog.AddDocumentXml("books", kBooksV2);
  EXPECT_TRUE(dup.IsInvalidArgument()) << dup;
  // The original entry is untouched.
  EXPECT_EQ(catalog.Find("books")->epoch, 1u);
}

TEST(CatalogTest, BadXmlReportsParseErrorAndAddsNothing) {
  Catalog catalog;
  Status s = catalog.AddDocumentXml("broken", "<a><b></a>");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.Find("broken"), nullptr);
}

TEST(CatalogTest, ViewsQueryThroughTheirOwnEngine) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddDocumentXml("books", kBooksV1).ok());
  ASSERT_TRUE(catalog.AddView("books", "titles", "book { title }").ok());

  auto entry = catalog.Find("books");
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->views.count("titles"), 1u);
  EXPECT_EQ(entry->views.at("titles").spec, "book { title }");

  auto stored_engine = entry->EngineFor("");
  ASSERT_TRUE(stored_engine.ok());
  EXPECT_EQ(stored_engine->get(), entry->engine.get());

  auto view_engine = entry->EngineFor("titles");
  ASSERT_TRUE(view_engine.ok());
  EXPECT_EQ(CountTitles(**view_engine), 2u);

  auto missing = entry->EngineFor("nope");
  EXPECT_TRUE(missing.status().IsNotFound());

  // Unknown doc / bad spec are rejected.
  EXPECT_FALSE(catalog.AddView("nope", "v", "book { title }").ok());
  EXPECT_FALSE(catalog.AddView("books", "bad", "no_such_elem {").ok());
}

TEST(CatalogTest, ReloadPublishesNewEpochWithoutDisturbingReaders) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddDocumentXml("books", kBooksV1).ok());
  ASSERT_TRUE(catalog.AddView("books", "titles", "book { title }").ok());

  // An "in-flight query" holds the old generation.
  auto old_entry = catalog.Find("books");
  ASSERT_NE(old_entry, nullptr);

  auto epoch = catalog.ReplaceDocumentXml("books", kBooksV2);
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  EXPECT_EQ(*epoch, 2u);

  auto new_entry = catalog.Find("books");
  ASSERT_NE(new_entry, nullptr);
  EXPECT_NE(new_entry.get(), old_entry.get());
  EXPECT_EQ(new_entry->epoch, 2u);
  EXPECT_EQ(new_entry->engine->epoch(), 2u);
  // The statistics epoch tracks the generation too: a reload rebuilds the
  // column statistics, so plans costed against the old generation's stats
  // carry a stale stats stamp as well as a stale document stamp.
  EXPECT_EQ(new_entry->engine->stats_epoch(), 2u);
  EXPECT_EQ(CountTitles(*new_entry->engine), 3u);

  // The old generation still answers with its own (old) data — reloads
  // never invalidate in-flight queries.
  EXPECT_EQ(old_entry->epoch, 1u);
  EXPECT_EQ(CountTitles(*old_entry->engine), 2u);

  // Views survive the reload, re-opened against the new document.
  auto view_engine = new_entry->EngineFor("titles");
  ASSERT_TRUE(view_engine.ok());
  EXPECT_EQ((*view_engine)->epoch(), 2u);
  EXPECT_EQ(CountTitles(**view_engine), 3u);

  // A plan prepared against the old generation cannot execute on the new
  // one: provenance stamps make cross-generation reuse an error.
  auto old_plan = old_entry->engine->Prepare("//book/title");
  ASSERT_TRUE(old_plan.ok());
  auto cross = new_entry->engine->Execute(*old_plan, {});
  EXPECT_TRUE(cross.status().IsInternal()) << cross.status();

  EXPECT_TRUE(catalog.Reload("nope").status().IsNotFound());
}

TEST(CatalogTest, EngineDefaultsComeFromTheCatalog) {
  query::ExecOptions defaults;
  defaults.collect_stats = true;
  Catalog catalog(defaults);
  ASSERT_TRUE(catalog.AddDocumentXml("books", kBooksV1).ok());
  ASSERT_TRUE(catalog.AddView("books", "titles", "book { title }").ok());

  auto entry = catalog.Find("books");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->engine->default_options(), defaults);
  EXPECT_EQ(entry->views.at("titles").engine->default_options(), defaults);

  // Defaults persist across reload generations.
  ASSERT_TRUE(catalog.ReplaceDocumentXml("books", kBooksV2).ok());
  EXPECT_EQ(catalog.Find("books")->engine->default_options(), defaults);
}

TEST(CatalogTest, ListIsOrderedByName) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddDocumentXml("zebra", kBooksV1).ok());
  ASSERT_TRUE(catalog.AddDocumentXml("alpha", kBooksV1).ok());
  auto all = catalog.List();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->name, "alpha");
  EXPECT_EQ(all[1]->name, "zebra");
}

}  // namespace
}  // namespace vpbn::server
