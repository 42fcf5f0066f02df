/// \file cardinality.h
/// \brief Cardinality estimation over a StoredDocument: exact DataGuide type
/// counts joined with the value index's per-column statistics
/// (idx::ColumnStats — equi-depth histograms, term frequencies, zone maps).
///
/// The estimates feed the cost model's strategy choices
/// (query/cost_model.h) and ExecStats::est_rows. Two sources:
///
///   * **Type counts are exact.** The DataGuide's per-type instance lists
///     are materialized, so structural cardinalities (how many `book`
///     nodes, how many `price` nodes under them) carry no estimation error
///     at all — the PBN-family advantage Wellenzohn et al.'s
///     content-and-structure framing builds on.
///   * **Value selectivities are histogram estimates.** A predicate
///     `[path op literal]` resolves (exactly, via the type-frontier walk of
///     value_pushdown.h) to a set of terminal types; each terminal type's
///     ColumnStats answers "what fraction of its rows match" from the
///     equi-depth histogram (relational, numeric equality) or the exact
///     dictionary postings size (string equality — O(1), cheaper and
///     sharper than any histogram).
///
/// Path + value selectivity compose per step: a step's frontier estimate is
/// the exact structural count scaled by the survival probability of its
/// predicates, where a predicate's survival for a context type t with
/// terminal type tt is 1 - (1 - sel(tt))^(count(tt)/count(t)) — the
/// per-context-subtree existential semantics, not a naive per-row AND.
///
/// The property test (tests/cost_model_test.cc) bounds the error of these
/// estimates against true counts on randomized documents.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dataguide/dataguide.h"
#include "index/value_index.h"
#include "query/path_ast.h"
#include "query/value_pushdown.h"
#include "storage/stored_document.h"

namespace vpbn::query {

class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(const storage::StoredDocument& stored)
      : stored_(&stored) {}

  /// Exact instance count of type \p t.
  double TypeCount(dg::TypeId t) const {
    return static_cast<double>(stored_->NodeIdsOfType(t).size());
  }

  /// Estimated fraction of \p col's rows whose value satisfies
  /// `value op lit`, in [0, 1]. Mirrors TermMatches' semantics: numeric
  /// comparison when both sides are numeric, string equality otherwise,
  /// relational ops never match non-numbers.
  static double ColumnSelectivity(const idx::TypeColumn& col, CompareOp op,
                                  const ValueLiteral& lit);

  /// Estimated matching rows of terminal type \p tt (selectivity times its
  /// row count). Falls back to a fixed default selectivity when the type
  /// carries no value column (uncovered nested structure).
  double EstimateMatchingRows(dg::TypeId tt, CompareOp op,
                              const ValueLiteral& lit) const;

  /// Estimated probability that one instance of \p context survives
  /// predicate \p pred (existential semantics over its subtree).
  double PredSurvival(dg::TypeId context, const Expr& pred) const;

  /// \brief Per-step estimate of a path's evaluation, mirroring the bulk
  /// evaluator's type-frontier walk.
  struct StepEstimate {
    /// Estimated surviving instances per frontier type after the step's
    /// node test, structural join, and predicates.
    std::vector<std::pair<dg::TypeId, double>> frontier;
    double rows = 0;  ///< total over the frontier
  };

  /// Estimates the whole path step by step. Structural counts are exact
  /// until the first predicate; predicates scale by PredSurvival.
  std::vector<StepEstimate> EstimatePath(const Path& path) const;

  /// Estimated result cardinality: the last step's frontier total (0 for an
  /// empty path).
  double EstimateResultRows(const Path& path) const;

  /// Default selectivity for predicates the statistics cannot see through
  /// (uncovered columns, contains()/starts-with(), general boolean
  /// expressions).
  static constexpr double kDefaultSelectivity = 0.33;

 private:
  const storage::StoredDocument* stored_;
};

}  // namespace vpbn::query
