/// \file eval_indexed.h
/// \brief Index-based evaluation over a StoredDocument: the classic
/// PBN-powered strategy (§4.2).
///
/// Name tests select candidate *types* from the DataGuide; the type index
/// supplies instances in document order; downward axes become containment
/// scans (binary search on the ordered per-type PBN lists); the remaining
/// axes are decided by pure number comparison (pbn/axis.h). This is the
/// query machinery whose virtual twin (eval_virtual.h) the paper builds.
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
#include "query/value_pushdown.h"
#include "storage/stored_document.h"

namespace vpbn::query {

/// \brief Adapter over a StoredDocument for PathEvaluator. Node handles are
/// NodeIds; document order is the order of their packed numbers.
class IndexedAdapter {
 public:
  using Node = xml::NodeId;

  /// StoredDocument is fully immutable after Build (indexes included), so
  /// the const interface is safe for concurrent use.
  static constexpr bool kParallelSafe = true;

  /// \p ctx (optional) supplies the stats counters and the per-query
  /// caches the pushdown paths memoize in; a null ctx changes no strategy,
  /// it only leaves those out.
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

  /// Whole-list predicate pushdown (see AdapterHasBatchPredicate):
  /// and/or/not trees over recognized value predicates and predicate-free
  /// existence chains become dictionary/numeric-column lookups intersected
  /// with packed subtree ranges. Declines (false) when the shape is not
  /// covered or a terminal type has no value column.
  bool BatchPredicate(const Expr& pred, const std::vector<Node>& nodes,
                      std::vector<char>* keep) const;

  const storage::StoredDocument& stored() const { return *stored_; }

 private:
  struct BatchGroup;  // per context-type slice of a BatchPredicate call

  bool TypeMatches(dg::TypeId t, const NodeTest& test) const;
  std::vector<dg::TypeId> MatchingTypes(const NodeTest& test) const;
  /// The packed number of \p n: a view into its type's arena.
  num::PackedPbnRef NumberOf(Node n) const;

  bool CanPushPredicate(const Expr& e,
                        const std::vector<dg::TypeId>& context_types) const;
  void EvalBatchPredicate(const Expr& e,
                          const std::vector<BatchGroup>& groups,
                          std::vector<char>* keep) const;

  const storage::StoredDocument* stored_;
  ExecContext* ctx_ = nullptr;
};

/// \brief Parse and evaluate \p path_text over the stored document.
Result<std::vector<xml::NodeId>> EvalIndexed(
    const storage::StoredDocument& stored, std::string_view path_text);

/// \brief Evaluate a pre-parsed path. The result is in document order. \p
/// ctx (optional) supplies a thread pool and collects ExecStats (see
/// query/engine.h).
Result<std::vector<xml::NodeId>> EvalIndexed(
    const storage::StoredDocument& stored, const Path& path,
    ExecContext* ctx = nullptr);

}  // namespace vpbn::query
