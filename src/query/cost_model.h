/// \file cost_model.h
/// \brief Costed strategy selection over a StoredDocument, fed by
/// query/cardinality.h estimates and the value index's zone maps.
///
/// Every strategy decision the evaluators make is a method here, so there
/// is one layer to read and tune. The stored *plan* is not one of them:
/// QueryEngine::Prepare runs bulk exactly when the path lies in the bulk
/// fragment (query/eval_bulk.h) and the per-node indexed evaluator
/// otherwise, with no costing.
///
///   * **Value-predicate strategy** (eval_bulk ValueMask), one of two:
///     collect the matching rows and semi-join them to the context rows
///     (the default; one merge), or scan each context's term-column range
///     with zone-map block skipping, stopping at the first hit and never
///     collecting rows at all (wins when few contexts each own a long,
///     mostly skippable range of a selective column).
///   * **Merge vs walk** (eval_virtual BatchAxis): a costed comparison of
///     the vtype merge join against per-node range walks.
///   * **Witness-first vs per-node on a view** (eval_virtual
///     BatchPredicate): whether a predicate call's context is large enough
///     to pay for the witness side's estimated size.
///
/// Costs are abstract work units (roughly "one streamed row" = 1). The
/// zone-map survivor fraction is *computed, not estimated*: the per-block
/// min/max arrays are resident in ColumnStats, so the model counts exactly
/// how many blocks a range predicate can touch in O(row_count / 256).

#pragma once

#include <cstdint>
#include <vector>

#include "query/cardinality.h"

namespace vpbn::query {

/// \brief Abstract per-operation work weights. The defaults were calibrated
/// against the E12/E16 sweeps; they need only get the *ratios* right.
struct CostWeights {
  double row = 1.0;          ///< stream one row through a scan or merge
  double probe = 8.0;        ///< one binary-search descent level
  double materialize = 6.0;  ///< decode one witness or context number
  double setup = 64.0;       ///< fixed per-structure overhead
};

/// \brief How a recognized [path op literal] predicate should be answered
/// for one (context type, context rows). See the file header.
enum class PredStrategy : uint8_t {
  kWitness,    ///< matching rows semi-joined to the context rows (default)
  kScanProbe,  ///< per-context zone-skipped term-column range scan
};

/// \brief The chosen strategy plus the estimates that drove it.
struct PredPlan {
  PredStrategy strategy = PredStrategy::kWitness;
  double est_rows = 0;  ///< estimated matching rows over all terminal types
};

/// \brief Zone-map admissibility of \p col 256-row block \p b for
/// `value op lit`: false means no row of the block can satisfy the
/// predicate, so a scan skips it whole. Conservative by construction (the
/// zone bounds cover the full block even when a scan visits only part of
/// it); semantics mirror TermMatches — string equality on the interned
/// term-id bounds, numeric comparisons on the value bounds, != never
/// skips. \p eq_term is the literal's dictionary term for the
/// string-equality case (idx::kNoTerm otherwise).
bool ZoneBlockCanMatch(const idx::ColumnStats& s, size_t b, CompareOp op,
                       const ValueLiteral& lit, uint32_t eq_term);

class CostModel {
 public:
  explicit CostModel(const storage::StoredDocument& stored,
                     CostWeights weights = {})
      : stored_(&stored), card_(stored), w_(weights) {}

  /// Strategy choice for one [path op literal] predicate against
  /// \p n_context rows of \p context_type, with resolved terminal types
  /// \p terminal_types.
  PredPlan ChoosePredStrategy(dg::TypeId context_type, size_t n_context,
                              const std::vector<dg::TypeId>& terminal_types,
                              CompareOp op, const ValueLiteral& lit) const;

  /// Fraction of \p col's zone-map blocks a `value op lit` scan must visit
  /// (the rest skip on their min/max bounds). Exact, O(blocks).
  static double ZoneSurvivorFraction(const idx::TypeColumn& col, CompareOp op,
                                     const ValueLiteral& lit);

  /// Costed merge-vs-walk for a virtual axis step: a vtype merge join
  /// streams context + candidates once after setup; a walk binary-searches
  /// the candidate list per context node.
  bool MergeBeatsWalk(size_t n_context, size_t n_candidates) const {
    double merge = w_.setup + (static_cast<double>(n_context) +
                               static_cast<double>(n_candidates)) *
                                  w_.row;
    double walk = static_cast<double>(n_context) * w_.probe *
                  Log2(n_candidates);
    return merge < walk;
  }

  /// Costed witness-first vs node-by-node for one value predicate call on
  /// a view. The witness side collects and decodes the \p est_witnesses
  /// estimated matching rows of the terminal vtypes (ColumnSelectivity x
  /// rows) — once per execution, but charged in full to every call, since
  /// any call may be the one that builds it — then decodes the
  /// \p n_context context numbers and merges them with the witnesses in
  /// their span. Node by node, each context node walks the predicate
  /// path's \p chain_steps steps, each a range scan of two binary searches
  /// over the \p n_terminal terminal instances.
  bool WitnessBeatsPerNode(size_t n_context, size_t chain_steps,
                           double est_witnesses, size_t n_terminal) const {
    const double n = static_cast<double>(n_context);
    const double witness =
        w_.setup + (est_witnesses + n) * (w_.row + w_.materialize);
    const double per_node = n * static_cast<double>(chain_steps) * 2 *
                            w_.probe * Log2(n_terminal);
    return witness < per_node;
  }

 private:
  static double Log2(size_t n);

  const storage::StoredDocument* stored_;
  CardinalityEstimator card_;
  CostWeights w_;
};

}  // namespace vpbn::query
