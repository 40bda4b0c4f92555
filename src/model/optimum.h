#ifndef CAMAL_MODEL_OPTIMUM_H_
#define CAMAL_MODEL_OPTIMUM_H_

#include "model/cost_model.h"
#include "model/workload_spec.h"

namespace camal::model {

/// A configuration together with its closed-form cost.
struct TheoreticalOptimum {
  ModelConfig config;
  double cost = 0.0;
};

/// Theoretical optimal size ratio for the leveling policy from Equation 5:
/// the root of w*T*(ln T - 1) = q*B, clamped to [2, T_lim].
///
/// Degenerate mixes: with no writes the cost is decreasing in T (fewer
/// levels), so T_lim is returned; with writes but no range lookups T = e
/// (clamped to 2) minimizes L*T; a pure point-lookup mix is T-insensitive
/// and returns 10 (the industry default).
double OptimalSizeRatioLeveling(const WorkloadSpec& w, const CostModel& model);

/// Theoretical optimal Bloom memory (bits) for leveling with fixed T from
/// Equation 6 — balances the marginal point-lookup gain of more filter bits
/// against the extra levels caused by a smaller buffer.
/// `mc_bits` memory is reserved (for the block cache) before the split.
double OptimalMfBitsLeveling(const WorkloadSpec& w, const CostModel& model,
                             double size_ratio, double mc_bits = 0.0);

/// Numeric argmin of the closed-form cost over integer T in [2, T_lim],
/// holding the other fields of `base` fixed.
double OptimalSizeRatioNumeric(const WorkloadSpec& w, const CostModel& model,
                               const ModelConfig& base);

/// Numeric argmin of the closed-form cost over Mf (golden-section), holding
/// T and policy of `base` fixed; Mb absorbs the remainder of the budget
/// after `mc_bits`.
double OptimalMfBitsNumeric(const WorkloadSpec& w, const CostModel& model,
                            const ModelConfig& base, double mc_bits = 0.0);

/// Full nested minimization over (T, Mf) for one policy — the "Classic"
/// (Endure nominal) tuning of the paper's baselines.
TheoreticalOptimum MinimizeCost(const WorkloadSpec& w, const CostModel& model,
                                lsm::CompactionPolicy policy);

/// Smallest sensible write-buffer size in bits (one block of entries).
double MinBufferBits(const SystemParams& params);

}  // namespace camal::model

#endif  // CAMAL_MODEL_OPTIMUM_H_
