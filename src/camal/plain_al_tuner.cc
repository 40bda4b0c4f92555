#include "camal/plain_al_tuner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "model/optimum.h"

namespace camal::tune {

bool SameConfig(const TuningConfig& a, const TuningConfig& b) {
  return a.policy == b.policy &&
         std::fabs(a.size_ratio - b.size_ratio) < 0.5 &&
         std::fabs(a.mf_bits - b.mf_bits) < 1.0 &&
         std::fabs(a.mc_bits - b.mc_bits) < 1.0 &&
         a.runs_per_level == b.runs_per_level && a.file_bytes == b.file_bytes;
}

PlainAlTuner::PlainAlTuner(const SystemSetup& full_setup,
                           const TunerOptions& options)
    : ModelBackedTuner(full_setup, options) {}

TuningConfig PlainAlTuner::RandomConfig(const model::SystemParams& sys) {
  const model::CostModel cm(sys);
  const double t_lim = std::floor(cm.SizeRatioLimit());
  const double m = sys.total_memory_bits;
  const double min_buf = model::MinBufferBits(sys);
  TuningConfig c;
  c.policy = options_.policy;
  c.size_ratio = 2.0 + std::floor(rng_.NextDouble() * (t_lim - 2.0 + 1.0));
  if (options_.tune_mc) {
    c.mc_bits = rng_.NextDouble() * 0.4 * m;
  }
  const double max_bpk =
      std::max(0.0, (m - c.mc_bits - min_buf) / sys.num_entries);
  const double bpk = rng_.NextDouble() * std::min(16.0, max_bpk);
  c.mf_bits = bpk * sys.num_entries;
  c.mb_bits = m - c.mf_bits - c.mc_bits;
  if (options_.k_mode != KTuningMode::kOff) {
    c.runs_per_level =
        1 + static_cast<int>(rng_.Uniform(static_cast<uint64_t>(
                std::min(8.0, c.size_ratio))));
  }
  return c;
}

TuningConfig PlainAlTuner::NextQuery(
    const model::WorkloadSpec& w, const model::SystemParams& sys,
    const std::vector<TuningConfig>& already) const {
  const std::vector<TuningConfig> grid = CandidateGrid(w, sys);
  TuningConfig best = grid.front();
  double best_pred = std::numeric_limits<double>::infinity();
  for (const TuningConfig& c : grid) {
    bool seen = false;
    for (const TuningConfig& a : already) {
      if (SameConfig(a, c)) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    const double pred = PredictObjective(w, c, sys);
    if (pred < best_pred) {
      best_pred = pred;
      best = c;
    }
  }
  return best;
}

void PlainAlTuner::Train(const std::vector<model::WorkloadSpec>& workloads) {
  const model::SystemParams sys = train_setup_.ToModelParams();
  const int init_samples = std::min(3, options_.budget_per_workload);
  for (const model::WorkloadSpec& w : workloads) {
    // Draw the initial random configurations serially (they consume rng_),
    // then evaluate them as one parallel batch. The closing AL loop is
    // inherently sequential: each query depends on the refit model.
    std::vector<TuningConfig> queried;
    for (int i = 0; i < init_samples; ++i) {
      queried.push_back(RandomConfig(sys));
    }
    CollectSamples(w, queried);
    for (int round = init_samples; round < options_.budget_per_workload;
         ++round) {
      RefitModel();
      const TuningConfig c = NextQuery(w, sys, queried);
      CollectSample(w, c);
      queried.push_back(c);
    }
    RefitModel();
    Checkpoint();
  }
}

}  // namespace camal::tune
