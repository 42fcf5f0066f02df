#include "xml/serializer.h"

#include "common/str_util.h"

namespace vpbn::xml {

namespace {

void AppendStartTag(const Document& doc, NodeId node, std::string* out,
                    bool self_closing) {
  out->push_back('<');
  out->append(doc.name(node));
  for (const Attribute& a : doc.attributes(node)) {
    out->push_back(' ');
    out->append(a.name);
    out->append("=\"");
    out->append(EscapeXmlAttribute(a.value));
    out->push_back('"');
  }
  if (self_closing) out->push_back('/');
  out->push_back('>');
}

void AppendEndTag(const Document& doc, NodeId node, std::string* out) {
  out->append("</");
  out->append(doc.name(node));
  out->push_back('>');
}

void SerializeCompact(const Document& doc, NodeId node, std::string* out) {
  if (doc.IsText(node)) {
    out->append(EscapeXmlText(doc.text(node)));
    return;
  }
  if (doc.first_child(node) == kNullNode) {
    AppendStartTag(doc, node, out, /*self_closing=*/true);
    return;
  }
  AppendStartTag(doc, node, out, /*self_closing=*/false);
  for (NodeId c : ChildRange(doc, node)) SerializeCompact(doc, c, out);
  AppendEndTag(doc, node, out);
}

void SerializeIndented(const Document& doc, NodeId node, int depth,
                       std::string* out) {
  std::string pad(static_cast<size_t>(depth) * 2, ' ');
  if (doc.IsText(node)) {
    out->append(pad);
    out->append(EscapeXmlText(doc.text(node)));
    out->push_back('\n');
    return;
  }
  out->append(pad);
  if (doc.first_child(node) == kNullNode) {
    AppendStartTag(doc, node, out, /*self_closing=*/true);
    out->push_back('\n');
    return;
  }
  // Single text child renders inline: <title>X</title>.
  NodeId only = doc.first_child(node);
  if (doc.next_sibling(only) == kNullNode && doc.IsText(only)) {
    AppendStartTag(doc, node, out, false);
    out->append(EscapeXmlText(doc.text(only)));
    AppendEndTag(doc, node, out);
    out->push_back('\n');
    return;
  }
  AppendStartTag(doc, node, out, false);
  out->push_back('\n');
  for (NodeId c : ChildRange(doc, node)) {
    SerializeIndented(doc, c, depth + 1, out);
  }
  out->append(pad);
  AppendEndTag(doc, node, out);
  out->push_back('\n');
}

}  // namespace

std::string SerializeNode(const Document& doc, NodeId node,
                          const SerializeOptions& options) {
  std::string out;
  if (options.indent) {
    SerializeIndented(doc, node, 0, &out);
  } else {
    SerializeCompact(doc, node, &out);
  }
  return out;
}

std::string SerializeDocument(const Document& doc,
                              const SerializeOptions& options) {
  std::string out;
  for (NodeId root : doc.roots()) {
    if (options.indent) {
      SerializeIndented(doc, root, 0, &out);
    } else {
      SerializeCompact(doc, root, &out);
    }
  }
  return out;
}

void SerializeWithRanges(const Document& doc, NodeId node, std::string* out,
                         std::vector<std::pair<uint64_t, uint64_t>>* ranges) {
  uint64_t start = out->size();
  if (doc.IsText(node)) {
    out->append(EscapeXmlText(doc.text(node)));
  } else if (doc.first_child(node) == kNullNode) {
    AppendStartTag(doc, node, out, /*self_closing=*/true);
  } else {
    AppendStartTag(doc, node, out, /*self_closing=*/false);
    for (NodeId c : ChildRange(doc, node)) {
      SerializeWithRanges(doc, c, out, ranges);
    }
    AppendEndTag(doc, node, out);
  }
  (*ranges)[node] = {start, out->size()};
}

void SerializeForestWithRanges(
    const Document& doc, std::string* out,
    std::vector<std::pair<uint64_t, uint64_t>>* ranges) {
  for (NodeId root : doc.roots()) SerializeWithRanges(doc, root, out, ranges);
}

}  // namespace vpbn::xml
