#include "camal/classic_tuner.h"

#include <algorithm>

#include "model/optimum.h"

namespace camal::tune {

ClassicTuner::ClassicTuner(const SystemSetup& setup,
                           const TunerOptions& options)
    : setup_(setup), options_(options) {}

void ClassicTuner::Train(const std::vector<model::WorkloadSpec>&) {
  Checkpoint();
}

TuningConfig ClassicTuner::Recommend(const model::WorkloadSpec& w) const {
  return RecommendFor(w, setup_.ToModelParams());
}

TuningConfig ClassicTuner::RecommendFor(
    const model::WorkloadSpec& w, const model::SystemParams& target) const {
  const model::CostModel cm(target, options_.cost_corrector.get());
  const model::TheoreticalOptimum opt =
      model::MinimizeCost(w, cm, options_.policy);
  TuningConfig c;
  c.policy = opt.config.policy;
  c.size_ratio = opt.config.size_ratio;
  c.mf_bits = opt.config.mf_bits;
  c.mb_bits = opt.config.mb_bits;
  c.mc_bits = 0.0;  // the I/O model cannot reason about the cache
  return c;
}

MonkeyTuner::MonkeyTuner(const SystemSetup& setup, bool use_cache)
    : setup_(setup), use_cache_(use_cache) {}

void MonkeyTuner::Train(const std::vector<model::WorkloadSpec>&) {
  Checkpoint();
}

TuningConfig MonkeyTuner::Recommend(const model::WorkloadSpec& w) const {
  return RecommendFor(w, setup_.ToModelParams());
}

TuningConfig MonkeyTuner::RecommendFor(
    const model::WorkloadSpec&, const model::SystemParams& target) const {
  TuningConfig c;
  c.policy = lsm::CompactionPolicy::kLeveling;
  c.size_ratio = 10.0;
  const double m = target.total_memory_bits;
  if (use_cache_) c.mc_bits = 0.2 * m;
  c.mf_bits = std::min(10.0 * target.num_entries, 0.8 * (m - c.mc_bits));
  c.mb_bits = m - c.mf_bits - c.mc_bits;
  return c;
}

}  // namespace camal::tune
