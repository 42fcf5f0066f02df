/// \file eval_bulk.h
/// \brief Set-at-a-time path evaluation over the type index using
/// stack-tree structural joins (pbn/structural_join.h).
///
/// The per-node evaluator (eval_indexed.h) processes one context node at a
/// time; the classic PBN-era alternative evaluates whole steps as joins
/// between sorted instance lists. With a DataGuide, a name-test chain
/// resolves to result *types* directly, so the state is, per type, a
/// selection of rows of that type's packed arena: sorted rows, or every
/// row. Joins read the arenas at the selected rows in place; predicates
/// mask the rows; the result reads NodeIds by row. Nothing is copied:
///
///     //book[author/name]/title
///       1. every book row                      — index lookup
///       2. every name row (a child type of a child type of book: every
///          instance lies under a book, so no join), then one
///          ancestor-descendant join of books with names marks the books
///          the predicate holds for
///       3. a parent-child join of the marked book rows with title rows
///          (none when every book is marked)
///
/// Supported fragment: absolute paths of child, descendant, '//', parent,
/// ancestor and ancestor-or-self steps with name/wildcard/text/node tests,
/// and predicates built from existence paths of downward steps, value
/// comparisons with a literal, contains()/starts-with() with a literal
/// (query/value_pushdown.h), @attr, and and/or/not over those. Everything
/// else (positions, count(), value joins, a trailing @attr, the self,
/// sibling and following/preceding axes) returns NotImplemented;
/// QueryEngine plans those paths on EvalIndexed.

#pragma once

#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/exec_context.h"
#include "query/path_parser.h"
#include "storage/stored_document.h"

namespace vpbn::query {

/// \brief True iff \p path lies in the bulk-join fragment described above.
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
