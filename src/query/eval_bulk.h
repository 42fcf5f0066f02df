/// \file eval_bulk.h
/// \brief Set-at-a-time path evaluation over the type index using
/// stack-tree structural joins (pbn/structural_join.h).
///
/// The per-node evaluators (eval_indexed.h) process one context node at a
/// time; the classic PBN-era alternative evaluates whole steps as joins
/// between sorted instance lists. With a DataGuide, a pure name-test chain
/// resolves to result *types* directly (one index lookup); joins are needed
/// exactly where predicates filter instances, which is where this evaluator
/// earns its keep:
///
///     //book[author/name]/title
///       1. types(book) instances      — index lookup
///       2. semi-join against types(book/author/name) instances (retain
///          books with a matching descendant)
///       3. parent-child join with types(title) under the retained books
///
/// Supported fragment: absolute paths of child/descendant steps with
/// name/wildcard/text tests and *existence* predicates that are themselves
/// such paths. Everything else returns NotImplemented; QueryEngine plans
/// those paths on EvalIndexed.

#pragma once

#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/exec_context.h"
#include "query/path_parser.h"
#include "storage/stored_document.h"

namespace vpbn::query {

/// \brief True iff \p path lies in the bulk-join fragment (child/descendant
/// chains, name-ish tests, existence predicates that are such chains).
/// Exposed so planners (query/engine.h) can pick the strategy once at
/// Prepare time instead of probing with a NotImplemented round trip.
bool InBulkFragment(const Path& path);

/// \brief Evaluate \p path set-at-a-time. The result is NodeIds in document
/// order. NotImplemented if the path uses features outside the join
/// fragment. \p ctx (optional) collects ExecStats.
Result<std::vector<xml::NodeId>> EvalBulk(
    const storage::StoredDocument& stored, const Path& path,
    ExecContext* ctx = nullptr);

/// \brief Parse and evaluate.
Result<std::vector<xml::NodeId>> EvalBulk(
    const storage::StoredDocument& stored, std::string_view path_text);

}  // namespace vpbn::query
