#include "query/cost_model.h"

#include <algorithm>
#include <cmath>

namespace vpbn::query {

double CostModel::Log2(size_t n) {
  return std::log2(static_cast<double>(n < 2 ? 2 : n));
}

bool ZoneBlockCanMatch(const idx::ColumnStats& s, size_t b, CompareOp op,
                       const ValueLiteral& lit, uint32_t eq_term) {
  if (op == CompareOp::kNe) return true;
  if (op == CompareOp::kEq && !lit.numeric) {
    return eq_term != idx::kNoTerm && s.zone_term_min[b] <= eq_term &&
           eq_term <= s.zone_term_max[b];
  }
  if (!lit.numeric || std::isnan(lit.num)) return false;
  const double lo = s.zone_min[b];
  const double hi = s.zone_max[b];
  if (lo > hi) return false;  // no numeric row in the block
  switch (op) {
    case CompareOp::kEq:
      return lo <= lit.num && lit.num <= hi;
    case CompareOp::kLt:
      return lo < lit.num;
    case CompareOp::kLe:
      return lo <= lit.num;
    case CompareOp::kGt:
      return hi > lit.num;
    default:  // kGe
      return hi >= lit.num;
  }
}

double CostModel::ZoneSurvivorFraction(const idx::TypeColumn& col,
                                       CompareOp op,
                                       const ValueLiteral& lit) {
  const idx::ColumnStats& s = col.stats;
  const size_t blocks = s.zone_min.size();
  if (blocks == 0) return 0;
  if (op == CompareOp::kNe) return 1.0;  // != never skips
  const uint32_t eq_term = op == CompareOp::kEq && !lit.numeric
                               ? col.dict->Find(lit.text)
                               : idx::kNoTerm;
  size_t survivors = 0;
  for (size_t b = 0; b < blocks; ++b) {
    if (ZoneBlockCanMatch(s, b, op, lit, eq_term)) ++survivors;
  }
  return static_cast<double>(survivors) / static_cast<double>(blocks);
}

PredPlan CostModel::ChoosePredStrategy(
    dg::TypeId context_type, size_t n_context,
    const std::vector<dg::TypeId>& terminal_types, CompareOp op,
    const ValueLiteral& lit) const {
  PredPlan plan;
  const double n_ctx = static_cast<double>(n_context);
  const double ctx_count = std::max(1.0, card_.TypeCount(context_type));

  double witness = w_.setup;
  double scan_probe = w_.setup;
  double total_rows = 0;

  for (dg::TypeId tt : terminal_types) {
    const double n_tt = card_.TypeCount(tt);
    if (n_tt == 0) continue;
    const idx::TypeColumn* col = stored_->value_index().Column(tt);
    const double m = card_.EstimateMatchingRows(tt, op, lit);
    const double sel = std::clamp(m / n_tt, 0.0, 1.0);
    total_rows += m;

    // Collecting the matching-rows list (CollectMatchingRows). Memoized
    // per predicate, so this is a once-per-query cost, not per context
    // group — but the strategies compete within one group, so charging it
    // keeps the comparison fair for the common single-group case.
    switch (op) {
      case CompareOp::kEq:
        witness +=
            2 * w_.probe * Log2(static_cast<size_t>(n_tt)) + m * w_.row;
        break;
      case CompareOp::kNe:
        witness += n_tt * w_.row;  // full term-column scan
        break;
      default:
        // Slice assign plus the explicit row-order sort.
        witness += 2 * w_.probe * Log2(static_cast<size_t>(n_tt)) +
                   m * w_.row + m * Log2(static_cast<size_t>(m)) * w_.row;
        break;
    }

    // Scan probe: per context instance, TypeRangeWithin (two binary
    // searches over the packed type list), then term tests over the
    // context's row range, skipping blocks the zone maps rule out,
    // stopping at the first hit.
    const double range_cost = 2 * w_.probe * Log2(static_cast<size_t>(n_tt));
    const double avg_range = n_tt / ctx_count;
    const double zsf =
        col != nullptr ? ZoneSurvivorFraction(*col, op, lit) : 1.0;
    double expected_scan = avg_range * zsf;
    if (sel > 0) expected_scan = std::min(expected_scan, 1.0 / sel);
    const double zone_checks =
        avg_range / static_cast<double>(idx::ColumnStats::kZoneBlockRows);
    scan_probe += n_ctx * (range_cost + zone_checks * w_.row +
                           expected_scan * w_.row);
  }

  // The witness side's semi-join: one merge of the context rows with the
  // matching rows, which arrive in row order.
  witness += (n_ctx + total_rows) * w_.row;

  plan.est_rows = total_rows;
  plan.strategy =
      scan_probe < witness ? PredStrategy::kScanProbe : PredStrategy::kWitness;
  return plan;
}

}  // namespace vpbn::query
