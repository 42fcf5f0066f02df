/// \file quickstart.cpp
/// \brief First contact with the library: parse a document, number it,
/// inspect its DataGuide, open a virtual hierarchy, and query it.
///
///   $ ./quickstart

#include <iostream>
#include <memory>

#include "query/engine.h"
#include "storage/stored_document.h"
#include "vpbn/virtual_document.h"
#include "xml/parser.h"

int main() {
  using namespace vpbn;

  // 1. Parse some XML. The library models documents as forests of element
  //    and text nodes; attributes are element properties.
  const char* kXml = R"(
    <library>
      <shelf topic="databases">
        <book year="1970"><title>Relational Model</title>
          <author>Codd</author></book>
        <book year="1994"><title>TCP/IP Illustrated</title>
          <author>Stevens</author></book>
      </shelf>
      <shelf topic="algorithms">
        <book year="1968"><title>TAOCP</title><author>Knuth</author></book>
      </shelf>
    </library>)";
  auto parsed = xml::Parse(kXml);
  if (!parsed.ok()) {
    std::cerr << "parse failed: " << parsed.status() << "\n";
    return 1;
  }
  xml::Document doc = std::move(parsed).ValueUnsafe();

  // 2. Build the stored form: the serialized string, prefix-based numbers
  //    (PBN) for every node, the DataGuide (structural summary), the value
  //    index and the type index. Shared ownership (shared_ptr) is the
  //    engine-facing convention: engines and virtual views co-own the
  //    document, so it can never dangle beneath them.
  auto stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(std::move(doc)));

  std::cout << "Types in the DataGuide:\n";
  for (dg::TypeId t = 0; t < stored->dataguide().num_types(); ++t) {
    std::cout << "  " << stored->dataguide().path(t) << "\n";
  }

  std::cout << "\nPBN numbers of the <book> elements:\n";
  dg::TypeId book =
      stored->dataguide().FindByPath("library.shelf.book").value();
  const num::PackedPbnList& numbers = stored->PackedNodesOfType(book);
  const std::vector<xml::NodeId>& books = stored->NodeIdsOfType(book);
  for (size_t row = 0; row < books.size(); ++row) {
    std::cout << "  " << numbers.Materialize(row)
              << "  value: " << stored->Value(books[row]) << "\n";
  }

  // 3. Sketch a *virtual hierarchy*: titles at the top, each containing the
  //    authors of the same book. No data moves; the vDataGuide plus level
  //    arrays (vPBN) reinterpret the numbers.
  auto opened = virt::VirtualDocument::OpenShared(stored, "title { author }");
  if (!opened.ok()) {
    std::cerr << "virtual open failed: " << opened.status() << "\n";
    return 1;
  }
  std::shared_ptr<const virt::VirtualDocument> vdoc = *opened;

  std::cout << "\nVirtual hierarchy 'title { author }':\n";
  for (const virt::VirtualNode& root : vdoc->Roots()) {
    std::cout << "  <title> " << vdoc->StringValue(root) << "\n";
  }

  // 4. Query the virtual hierarchy with XPath through the QueryEngine
  //    facade: Prepare parses and plans once, Execute runs the plan on
  //    this thread. author is now a *child* of title even though
  //    physically it is a sibling.
  query::QueryEngine engine(vdoc);
  auto prepared = engine.Prepare("//title[author = \"Knuth\"]");
  if (!prepared.ok()) {
    std::cerr << "prepare failed: " << prepared.status() << "\n";
    return 1;
  }
  auto result = engine.Execute(*prepared, {.collect_stats = true});
  if (!result.ok()) {
    std::cerr << "query failed: " << result.status() << "\n";
    return 1;
  }
  std::cout << "\nTitles by Knuth (via virtual //title[author = ...]):\n";
  for (const virt::VirtualNode& n : result->virtual_nodes()) {
    std::cout << "  " << vdoc->StringValue(n) << "\n";
  }
  std::cout << "\nExecution stats:\n" << result->stats().ToString();
  return 0;
}
