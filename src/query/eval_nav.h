/// \file eval_nav.h
/// \brief Navigational evaluation: plain tree walking over a Document.
///
/// The simplest substrate, used as the reference implementation in tests
/// and as the evaluator applied to *materialized* documents in the
/// materialize-then-query baseline.

#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "query/evaluator.h"
#include "query/path_parser.h"
#include "xml/document.h"

namespace vpbn::query {

/// \brief Adapter over a Document for PathEvaluator.
class NavAdapter {
 public:
  using Node = xml::NodeId;

  explicit NavAdapter(const xml::Document& doc);

  std::vector<Node> DocumentRoots(const NodeTest& test) const;
  std::vector<Node> AllNodes(const NodeTest& test) const;
  std::vector<Node> Axis(const Node& n, num::Axis axis,
                         const NodeTest& test) const;
  void SortUnique(std::vector<Node>* nodes) const;
  std::string StringValue(const Node& n) const;
  Result<std::string> Attribute(const Node& n, const std::string& name) const;

  const xml::Document& doc() const { return *doc_; }

 private:
  bool Matches(Node n, const NodeTest& test) const;

  const xml::Document* doc_;
  std::vector<size_t> order_pos_;  // document-order position by NodeId
};

/// \brief Parse and evaluate \p path_text over \p doc.
Result<std::vector<xml::NodeId>> EvalNav(const xml::Document& doc,
                                         std::string_view path_text);

/// \brief Evaluate a pre-parsed path over \p doc. \p ctx (optional)
/// collects ExecStats (see query/engine.h).
Result<std::vector<xml::NodeId>> EvalNav(const xml::Document& doc,
                                         const Path& path,
                                         ExecContext* ctx = nullptr);

}  // namespace vpbn::query
