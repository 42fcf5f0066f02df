/// \file per_node_adapter.h
/// \brief Test-only reference evaluator: one node at a time, no batching.
///
/// PerNodeAdapter<Inner> wraps a substrate adapter and forwards only the
/// per-node interface PathEvaluator requires (query/evaluator.h). Because
/// it offers no BatchAxis, BatchPredicate or FastStringValue, a
/// PathEvaluator over it expands every axis per context node and compares
/// every value through the node's assembled string. That is the reference
/// the differential tests hold the engine's merge joins, value-index
/// pushdown and costed strategies to, byte for byte.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/eval_indexed.h"
#include "query/eval_virtual.h"
#include "query/evaluator.h"
#include "query/path_parser.h"

namespace vpbn::testutil {

template <typename Inner>
class PerNodeAdapter {
 public:
  using Node = typename Inner::Node;

  explicit PerNodeAdapter(const Inner& inner) : inner_(&inner) {}

  std::vector<Node> DocumentRoots(const query::NodeTest& test) const {
    return inner_->DocumentRoots(test);
  }
  std::vector<Node> AllNodes(const query::NodeTest& test) const {
    return inner_->AllNodes(test);
  }
  std::vector<Node> Axis(const Node& n, num::Axis axis,
                         const query::NodeTest& test) const {
    return inner_->Axis(n, axis, test);
  }
  void SortUnique(std::vector<Node>* nodes) const { inner_->SortUnique(nodes); }
  std::string StringValue(const Node& n) const {
    return inner_->StringValue(n);
  }
  Result<std::string> Attribute(const Node& n, const std::string& name) const {
    return inner_->Attribute(n, name);
  }

 private:
  const Inner* inner_;
};

/// Evaluates \p path_text over \p inner's substrate one node at a time.
template <typename Inner>
Result<std::vector<typename Inner::Node>> EvalPerNode(
    const Inner& inner, std::string_view path_text) {
  VPBN_ASSIGN_OR_RETURN(query::Path path, query::ParsePath(path_text));
  PerNodeAdapter<Inner> adapter(inner);
  query::PathEvaluator<PerNodeAdapter<Inner>> evaluator(adapter);
  return evaluator.Eval(path);
}

inline Result<std::vector<xml::NodeId>> EvalPerNode(
    const storage::StoredDocument& stored, std::string_view path_text) {
  return EvalPerNode(query::IndexedAdapter(stored), path_text);
}

inline Result<std::vector<virt::VirtualNode>> EvalPerNode(
    const virt::VirtualDocument& vdoc, std::string_view path_text) {
  return EvalPerNode(query::VirtualAdapter(vdoc), path_text);
}

}  // namespace vpbn::testutil
