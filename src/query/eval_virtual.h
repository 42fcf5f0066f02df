/// \file eval_virtual.h
/// \brief Virtual evaluation: the paper's contribution applied to queries.
///
/// Path steps run directly against the vDataGuide's virtual type forest and
/// the original document's type index; axis membership between instances is
/// decided by vPBN number comparison (vpbn/vpbn.h). No data is transformed:
/// "our approach is to virtually transform only the data needed by the
/// query by applying the transformation at the level of the node numbers
/// used in the query" (§4.3).
///
/// Axis evaluation is join-based where the axis allows it: BatchAxis
/// partitions the context by virtual type and, for every (context-vtype,
/// result-vtype) pair the type forest can produce, runs one merge
/// (virt::MergeCompatiblePairs) over the pair's batch-decoded instance
/// columns — a linear pass per pair instead of |context| x |candidates|
/// predicate calls. Pairs whose intermediate chain is not provably intact
/// (ChainSafe) fall back to the exact per-node chain expansion, so results
/// are byte-identical to the per-candidate path.
///
/// Value predicates take the stored bulk path's shape (BatchPredicate):
/// the matching rows of each terminal vtype's value column are the
/// witnesses, collected once per execution, and the context semi-joins
/// them with the same vtype-pair merge, restricted to the witnesses inside
/// the context's span.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/evaluator.h"
#include "query/path_parser.h"
#include "query/value_pushdown.h"
#include "vpbn/virtual_document.h"

namespace vpbn::query {

/// \brief Adapter over a VirtualDocument for PathEvaluator.
class VirtualAdapter {
 public:
  using Node = virt::VirtualNode;

  /// \p ctx (optional) supplies the MatchingVTypes cache, the stats
  /// counters and the merge test pin; it must outlive the adapter. A null
  /// ctx changes no strategy.
  explicit VirtualAdapter(const virt::VirtualDocument& vdoc,
                          ExecContext* ctx = nullptr)
      : vdoc_(&vdoc), ctx_(ctx) {}

  std::vector<Node> DocumentRoots(const NodeTest& test) const;
  std::vector<Node> AllNodes(const NodeTest& test) const;
  std::vector<Node> Axis(const Node& n, num::Axis axis,
                         const NodeTest& test) const;

  /// Whole-context axis evaluation by vtype-pair merge joins (see the file
  /// comment). True: slots[i] holds Axis(context[i], axis, test) as a set,
  /// duplicate-free. False: axis not covered (self / order / sibling axes),
  /// or the cost model finds the context too small for a full-list merge
  /// to beat the per-node range scans.
  bool BatchAxis(const std::vector<Node>& context, num::Axis axis,
                 const NodeTest& test,
                 std::vector<std::vector<Node>>* slots) const;

  /// BatchAxis without the per-slot materialization: appends every hit to
  /// \p out directly (task order; the caller's SortUnique restores document
  /// order). For steps with no predicates this skips one small vector
  /// allocation per context node — positional semantics never look at the
  /// per-slot lists there, and slots are duplicate-free, so the flattened
  /// result and the per-node counts are unchanged. Same false conditions
  /// as BatchAxis.
  bool BatchAxisFlat(const std::vector<Node>& context, num::Axis axis,
                     const NodeTest& test, std::vector<Node>* out) const;

  /// Whole-list answer to a value predicate (evaluator.h
  /// AdapterHasBatchPredicate), witness first. `[path op literal]`: per
  /// (context vtype, terminal vtype) pair the chain reaches, the terminal
  /// value column's matching rows (memoized per predicate and terminal
  /// vtype) semi-join the context by the vtype-pair merge, over only the
  /// witnesses inside the context's span. `[@attr op literal]` and
  /// contains()/starts-with() over `@attr`: a view keeps each element's own
  /// attributes, so the stored attribute column of the node's original
  /// type answers at the node's row. True: keep[i] is the predicate's truth
  /// for nodes[i]. False (the evaluator tests node by node): another shape,
  /// contains()/starts-with() over a path (XPath reads the first node in
  /// virtual order there), a terminal vtype without a value column, a pair
  /// the merge rules do not cover (see PredPairs), or a list the cost
  /// model finds too small for the witness side's estimated size.
  bool BatchPredicate(const Expr& pred, const std::vector<Node>& nodes,
                      std::vector<char>* keep) const;

  void SortUnique(std::vector<Node>* nodes) const;
  std::string StringValue(const Node& n) const;
  Result<std::string> Attribute(const Node& n, const std::string& name) const;

  /// String value served from the virtual document's per-vtype value
  /// column (intact vtypes reuse the stored index's column; covered
  /// non-intact vtypes read their lazily assembled column). nullopt when
  /// the vtype is not covered — the caller assembles the value per node.
  std::optional<std::string_view> FastStringValue(const Node& n) const;

  const virt::VirtualDocument& vdoc() const { return *vdoc_; }

 private:
  struct ContextGroup;
  struct JoinTask;
  struct PredPairs;

  bool VTypeMatches(vdg::VTypeId t, const NodeTest& test) const;
  bool ChainSafe(vdg::VTypeId top, vdg::VTypeId bottom) const;
  std::shared_ptr<const std::vector<vdg::VTypeId>> MatchingVTypes(
      const NodeTest& test) const;

  /// Exact chain expansion for descendant types where ChainSafe fails,
  /// shared by Axis() and the batch fallback tasks: walks actual virtual
  /// children from \p n, emitting matching nodes of unsafe types.
  void DescendantWalkUnsafe(const Node& n, const NodeTest& test,
                            std::vector<Node>* out) const;
  /// Ancestor counterpart: climbs actual (reachable) virtual parents from
  /// \p n, emitting matching ancestors whose type the merges do not cover.
  void AncestorWalkUnsafe(const Node& n, const NodeTest& test,
                          std::vector<Node>* out) const;

  void RunJoinTask(const JoinTask& task, const std::vector<Node>& context,
                   num::Axis axis, const NodeTest& test,
                   std::vector<std::pair<uint32_t, Node>>* hits,
                   num::JoinCounters* counters) const;

  /// The vtypes a predicate-free chain reaches from \p ct over the
  /// vDataGuide (the view counterpart of ResolveChainTypes), sorted.
  std::vector<vdg::VTypeId> ResolveChainVTypes(vdg::VTypeId ct,
                                               const Path& path) const;
  /// The merge pairs of a [path op literal] predicate from context vtype
  /// \p ct, memoized per (predicate, context vtype) in the ExecContext.
  std::shared_ptr<const PredPairs> ResolvePredPairs(const Expr& pred,
                                                    const ValuePred& vp,
                                                    vdg::VTypeId ct) const;
  /// The witness side of terminal vtype \p tt: the numbers of its value
  /// column's matching rows, in row order, built at most once per
  /// (predicate, terminal vtype) and execution.
  std::shared_ptr<const num::DecodedPbnColumn> Witnesses(
      const Expr& pred, const ValuePred& vp, vdg::VTypeId tt) const;
  bool PathPredicate(const Expr& pred, const ValuePred& vp,
                     const std::vector<Node>& nodes,
                     std::vector<char>* keep) const;
  void AttrPredicate(const ValuePred& vp, const std::vector<Node>& nodes,
                     std::vector<char>* keep) const;

  /// Shared core of BatchAxis / BatchAxisFlat: exactly one of \p slots and
  /// \p flat is non-null.
  bool BatchAxisImpl(const std::vector<Node>& context, num::Axis axis,
                     const NodeTest& test,
                     std::vector<std::vector<Node>>* slots,
                     std::vector<Node>* flat) const;

  const virt::VirtualDocument* vdoc_;
  ExecContext* ctx_;
};

/// \brief Parse and evaluate \p path_text over the virtual document.
Result<std::vector<virt::VirtualNode>> EvalVirtual(
    const virt::VirtualDocument& vdoc, std::string_view path_text);

/// \brief Evaluate a pre-parsed path. \p ctx (optional) collects
/// ExecStats (see query/engine.h).
Result<std::vector<virt::VirtualNode>> EvalVirtual(
    const virt::VirtualDocument& vdoc, const Path& path,
    ExecContext* ctx = nullptr);

}  // namespace vpbn::query
