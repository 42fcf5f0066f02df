/// \file test_util.h
/// \brief Shared fixtures: the paper's running example and random generators.

#pragma once

#include <string>

#include "common/random.h"
#include "pbn/pbn.h"
#include "xml/builder.h"
#include "xml/document.h"
#include "xml/parser.h"

namespace vpbn::testutil {

/// The paper's Figure 2 data model instance (two books with title, author,
/// publisher). Node PBN numbers then match Figure 8 exactly.
inline xml::Document PaperFigure2() {
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
  return std::move(doc).ValueUnsafe();
}

/// The node of \p doc whose PBN number is \p number: the root at forest
/// ordinal number.at1(1), then at each later component the child with that
/// 1-based sibling ordinal, found by walking sibling links. kNullNode when
/// no node has the number. Lets tests name the paper's literal numbers
/// (Figure 8) by the node they denote.
inline xml::NodeId NodeAt(const xml::Document& doc, const num::Pbn& number) {
  xml::NodeId node = xml::kNullNode;
  for (size_t i = 1; i <= number.length(); ++i) {
    const uint32_t ordinal = number.at1(i);
    if (ordinal == 0) return xml::kNullNode;
    xml::NodeId c;
    if (i == 1) {
      if (ordinal > doc.roots().size()) return xml::kNullNode;
      c = doc.roots()[ordinal - 1];
    } else {
      c = doc.first_child(node);
      for (uint32_t k = 1; k < ordinal && c != xml::kNullNode; ++k) {
        c = doc.next_sibling(c);
      }
    }
    if (c == xml::kNullNode) return xml::kNullNode;
    node = c;
  }
  return node;
}

/// The vDataGuide of Sam's transformation (§2): title { author { name } }.
inline const char* SamSpec() { return "title { author { name } }"; }

/// A random element-only forest whose shape exercises deep and wide trees.
inline xml::Document RandomForest(uint64_t seed, int n_nodes,
                                  int n_labels = 6) {
  Rng rng(seed);
  xml::Document doc;
  std::vector<xml::NodeId> pool;
  int n_roots = 1 + static_cast<int>(rng.Uniform(2));
  for (int r = 0; r < n_roots; ++r) {
    std::string label = "r";
    label += std::to_string(r);
    pool.push_back(doc.AddElement(label, xml::kNullNode));
  }
  while (static_cast<int>(doc.num_nodes()) < n_nodes) {
    xml::NodeId parent = pool[rng.Uniform(pool.size())];
    std::string label = "e";
    label += std::to_string(rng.Uniform(n_labels));
    if (rng.Bernoulli(0.2)) {
      std::string text = "t";
      text += std::to_string(rng.Uniform(100));
      doc.AddText(text, parent);
    } else {
      pool.push_back(doc.AddElement(label, parent));
    }
  }
  return doc;
}

}  // namespace vpbn::testutil
