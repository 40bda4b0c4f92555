#include "model/cost_model.h"

#include <algorithm>
#include <cmath>

namespace camal::model {

namespace {
constexpr double kLn2Sq = 0.4804530139182014;  // ln^2(2)
}  // namespace

double CostModel::Levels(const ModelConfig& c) const {
  const double mb = std::max(c.mb_bits, params_.entry_bits);
  const double ratio = params_.num_entries * params_.entry_bits / mb + 1.0;
  const double l = std::log(ratio) / std::log(c.size_ratio);
  return std::max(1.0, l);
}

double CostModel::RunsPerLevel(const ModelConfig& c) const {
  if (c.runs_per_level > 0.0) return c.runs_per_level;
  return c.policy == lsm::CompactionPolicy::kLeveling ? 1.0 : c.size_ratio;
}

double CostModel::ZeroResultLookupCost(const ModelConfig& c) const {
  const double fpr =
      std::exp(-kLn2Sq * c.mf_bits / params_.num_entries);
  return std::min(1.0, fpr) * RunsPerLevel(c);
}

double CostModel::NonZeroResultLookupCost(const ModelConfig& c) const {
  return ZeroResultLookupCost(c) + 1.0;
}

double CostModel::RangeLookupCost(const ModelConfig& c) const {
  const double k = RunsPerLevel(c);
  return k * Levels(c) + k * params_.selectivity / params_.block_entries;
}

double CostModel::WriteCost(const ModelConfig& c) const {
  const double k = RunsPerLevel(c);
  return Levels(c) * c.size_ratio / (k * params_.block_entries);
}

double CostModel::OpCost(const WorkloadSpec& w, const ModelConfig& c) const {
  return w.v * Corrected(CostChannel::kPointLookup, ZeroResultLookupCost(c)) +
         w.r * Corrected(CostChannel::kPointLookup,
                         NonZeroResultLookupCost(c)) +
         w.q * Corrected(CostChannel::kRangeLookup, RangeLookupCost(c)) +
         w.w * Corrected(CostChannel::kWrite, WriteCost(c));
}

double CostModel::SizeRatioLimit() const {
  const double t_lim =
      params_.num_entries * params_.entry_bits / params_.total_memory_bits +
      1.0;
  return std::clamp(t_lim, 4.0, 64.0);
}

}  // namespace camal::model
