/// \file live_feed.cpp
/// \brief PBN numbers under a growing document (the §3 context): a feed
/// document grows by appends, and numbering the grown feed leaves every
/// earlier number unchanged, because an appended entry takes the next
/// sibling ordinal. An insertion before an existing entry would shift the
/// ordinals of every later sibling; that renumbering cost is the update
/// problem the paper cites as orthogonal to its own.
///
///   $ ./live_feed [events]

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "pbn/axis.h"
#include "pbn/numbering.h"
#include "xml/document.h"

int main(int argc, char** argv) {
  using namespace vpbn;

  const int events = std::max(2, argc > 1 ? std::atoi(argv[1]) : 2000);
  constexpr int kBatch = 100;

  xml::Document doc;
  xml::NodeId feed = doc.AddElement("feed", xml::kNullNode);
  num::Numbering numbering = num::Numbering::Number(doc);

  // Entries arrive in batches; after each batch the grown feed is numbered
  // afresh and every earlier node's number is compared with its old one.
  std::vector<xml::NodeId> timeline;
  size_t renumbered = 0;
  for (int i = 1; i <= events; ++i) {
    timeline.push_back(doc.AddElement("entry", feed));
    if (i % kBatch != 0 && i != events) continue;
    num::Numbering grown = num::Numbering::Number(doc);
    for (xml::NodeId id = 0; id < numbering.size(); ++id) {
      if (!(numbering.OfNode(id) == grown.OfNode(id))) ++renumbered;
    }
    numbering = std::move(grown);
  }

  std::cout << "feed grew to " << doc.num_nodes() << " nodes in batches of "
            << kBatch << "\n"
            << "earlier nodes renumbered by appends: " << renumbered
            << " (expected: 0)\n";

  // The numbers are a faithful total order over the timeline: each entry is
  // a preceding sibling of its successor.
  size_t ordered = 0;
  for (size_t i = 1; i < timeline.size(); ++i) {
    if (num::IsPrecedingSibling(numbering.OfNode(timeline[i - 1]),
                                numbering.OfNode(timeline[i]))) {
      ++ordered;
    }
  }
  std::cout << ordered << " of " << timeline.size() - 1
            << " adjacent pairs correctly ordered (expected: all)\n";
  std::cout << "first entry " << numbering.OfNode(timeline.front())
            << ", last entry " << numbering.OfNode(timeline.back()) << "\n";
  return renumbered == 0 && ordered == timeline.size() - 1 ? 0 : 1;
}
