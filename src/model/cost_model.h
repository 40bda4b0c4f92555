#ifndef CAMAL_MODEL_COST_MODEL_H_
#define CAMAL_MODEL_COST_MODEL_H_

#include <cstdint>

#include "lsm/options.h"
#include "model/cost_corrector.h"
#include "model/workload_spec.h"

namespace camal::model {

/// Fixed system facts the complexity model needs (Figure 2 of the paper).
struct SystemParams {
  /// Total number of entries (N).
  double num_entries = 40000;
  /// Entry size in bits (E).
  double entry_bits = 128 * 8;
  /// Entries per storage block (B).
  double block_entries = 32;
  /// Range-lookup selectivity in entries (s).
  double selectivity = 16;
  /// Total memory budget in bits (M = Mb + Mf + Mc). Default ~16 bits per
  /// entry, matching the paper's 16 MB for 10M 1KB entries ratio.
  double total_memory_bits = 16.0 * 40000;
};

/// One point in the (complexity-model view of the) configuration space.
struct ModelConfig {
  lsm::CompactionPolicy policy = lsm::CompactionPolicy::kLeveling;
  /// Size ratio T (>= 2).
  double size_ratio = 10.0;
  /// Bloom filter memory in bits (Mf).
  double mf_bits = 0.0;
  /// Write-buffer memory in bits (Mb).
  double mb_bits = 0.0;
  /// Generalized runs-per-level K (0 = policy default: 1 leveling,
  /// T tiering). Used only by the extension model.
  double runs_per_level = 0.0;
};

/// Monkey/Dostoevsky-style closed-form expected-I/O model.
///
/// Implements the four per-operation costs of Figure 2 with the standard
/// ln^2(2) Bloom factor (FPR = exp(-(Mf/N) ln^2 2)) so the model is
/// consistent with real Bloom filters, plus a generalized hybrid form with
/// K runs per level used by the Section 8.4 extension.
class CostModel {
 public:
  /// `corrector`, when non-null, maps each predicted cost term of the
  /// workload-weighted objective (`OpCost`) to its calibrated
  /// measured-cost estimate; not owned, must outlive the model. Null (the
  /// default) is the identity — bit-for-bit the uncalibrated model. The
  /// per-operation primitives (V/R/Q/W) stay uncorrected: they are the
  /// model's *structural* quantities (Bloom-probe fan-out, run counts)
  /// that calibration has no measured counterpart for.
  explicit CostModel(const SystemParams& params,
                     const CostCorrector* corrector = nullptr)
      : params_(params), corrector_(corrector) {}

  /// Continuous number of levels log_T(N*E/Mb + 1), floored at 1.
  double Levels(const ModelConfig& c) const;

  /// Expected I/Os of a zero-result point lookup (V).
  double ZeroResultLookupCost(const ModelConfig& c) const;
  /// Expected I/Os of a non-zero-result point lookup (R).
  double NonZeroResultLookupCost(const ModelConfig& c) const;
  /// Expected I/Os of a range lookup (Q).
  double RangeLookupCost(const ModelConfig& c) const;
  /// Amortized I/Os of a write (W).
  double WriteCost(const ModelConfig& c) const;

  /// Workload-weighted cost f = vV + rR + qQ + wW (Equation 2).
  double OpCost(const WorkloadSpec& w, const ModelConfig& c) const;

  /// Largest size ratio considered (T_lim: the ratio at which the tree
  /// collapses toward a single level for the smallest sensible buffer).
  double SizeRatioLimit() const;

  const SystemParams& params() const { return params_; }
  const CostCorrector* corrector() const { return corrector_; }

 private:
  /// Effective runs per level: K if set, else policy default.
  double RunsPerLevel(const ModelConfig& c) const;

  /// `x` through the attached corrector; the identity when detached (same
  /// value, same floating-point expression — the uncalibrated objectives
  /// stay bit-identical).
  double Corrected(CostChannel channel, double x) const {
    return corrector_ == nullptr ? x : corrector_->Correct(channel, x);
  }

  SystemParams params_;
  const CostCorrector* corrector_ = nullptr;
};

}  // namespace camal::model

#endif  // CAMAL_MODEL_COST_MODEL_H_
