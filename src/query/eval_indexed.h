/// \file eval_indexed.h
/// \brief Index-based evaluation over a StoredDocument: the classic
/// PBN-powered strategy (§4.2), one context node at a time.
///
/// Name tests select candidate *types* from the DataGuide; the type index
/// supplies instances in document order; downward axes become containment
/// scans (binary search on the ordered per-type PBN lists); parent,
/// ancestor and sibling axes follow the tree's links; following and
/// preceding are decided by pure number comparison (pbn/axis.h). This is
/// the query machinery whose virtual twin (eval_virtual.h) the paper builds.
///
/// QueryEngine plans it only for the shapes the set-at-a-time bulk joins
/// (eval_bulk.h) cannot express: positional predicates, count(), value
/// joins, a trailing @attr, predicates with upward steps, and the self,
/// sibling and following/preceding axes. Its value comparisons read the
/// value index's interned terms (FastStringValue), but it pushes no
/// predicate down; that is bulk's job.
///
/// Node handles are NodeIds, shared with the Document. A node's number is
/// its row in its type's packed arena, so no step encodes or hashes a Pbn,
/// and results render straight from the value index's byte ranges.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/evaluator.h"
#include "query/path_parser.h"
#include "storage/stored_document.h"

namespace vpbn::query {

/// \brief Adapter over a StoredDocument for PathEvaluator. Node handles are
/// NodeIds; document order is the order of their packed numbers.
class IndexedAdapter {
 public:
  using Node = xml::NodeId;

  /// \p ctx (optional) supplies the stats counters; a null ctx changes
  /// nothing but the counting.
  explicit IndexedAdapter(const storage::StoredDocument& stored,
                          ExecContext* ctx = nullptr)
      : stored_(&stored), ctx_(ctx) {}

  std::vector<Node> DocumentRoots(const NodeTest& test) const;
  std::vector<Node> AllNodes(const NodeTest& test) const;
  std::vector<Node> Axis(const Node& n, num::Axis axis,
                         const NodeTest& test) const;
  void SortUnique(std::vector<Node>* nodes) const;
  std::string StringValue(const Node& n) const;
  Result<std::string> Attribute(const Node& n, const std::string& name) const;

  /// String value served as a view into the value index's interned term
  /// when the node's type is covered (see AdapterHasFastStringValue).
  std::optional<std::string_view> FastStringValue(const Node& n) const;

  const storage::StoredDocument& stored() const { return *stored_; }

 private:
  bool TypeMatches(dg::TypeId t, const NodeTest& test) const;
  std::vector<dg::TypeId> MatchingTypes(const NodeTest& test) const;

  const storage::StoredDocument* stored_;
  ExecContext* ctx_ = nullptr;
};

/// \brief Parse and evaluate \p path_text over the stored document.
Result<std::vector<xml::NodeId>> EvalIndexed(
    const storage::StoredDocument& stored, std::string_view path_text);

/// \brief Evaluate a pre-parsed path. The result is in document order. \p
/// ctx (optional) collects ExecStats (see query/engine.h).
Result<std::vector<xml::NodeId>> EvalIndexed(
    const storage::StoredDocument& stored, const Path& path,
    ExecContext* ctx = nullptr);

}  // namespace vpbn::query
