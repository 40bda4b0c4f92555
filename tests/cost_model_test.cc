#include <cmath>

#include <gtest/gtest.h>

#include "model/cost_model.h"
#include "model/optimum.h"
#include "model/workload_spec.h"

namespace camal::model {
namespace {

constexpr double kLn2Sq = 0.4804530139182014;

SystemParams Params() {
  SystemParams p;
  p.num_entries = 40000;
  p.entry_bits = 1024;
  p.block_entries = 32;
  p.selectivity = 16;
  p.total_memory_bits = 640000;
  return p;
}

ModelConfig Leveled(double t, double mf, double mb) {
  ModelConfig c;
  c.policy = lsm::CompactionPolicy::kLeveling;
  c.size_ratio = t;
  c.mf_bits = mf;
  c.mb_bits = mb;
  return c;
}

TEST(WorkloadSpecTest, NormalizedSumsToOne) {
  WorkloadSpec w;
  w.v = 2;
  w.r = 2;
  w.q = 2;
  w.w = 2;
  const WorkloadSpec n = w.Normalized();
  EXPECT_DOUBLE_EQ(n.Total(), 1.0);
  EXPECT_DOUBLE_EQ(n.v, 0.25);
}

TEST(WorkloadSpecTest, KlDivergenceProperties) {
  WorkloadSpec a{0.25, 0.25, 0.25, 0.25};
  WorkloadSpec b{0.7, 0.1, 0.1, 0.1};
  EXPECT_NEAR(KlDivergence(a, a), 0.0, 1e-9);
  EXPECT_GT(KlDivergence(a, b), 0.0);
  EXPECT_GT(KlDivergence(b, a), 0.0);
}

TEST(WorkloadSpecTest, SampleInKlBallStaysInBall) {
  util::Random rng(5);
  WorkloadSpec center{0.4, 0.3, 0.2, 0.1};
  for (int i = 0; i < 50; ++i) {
    const WorkloadSpec s = SampleInKlBall(center, 0.3, &rng);
    EXPECT_LE(KlDivergence(s, center), 0.3 + 1e-9);
    EXPECT_NEAR(s.Total(), 1.0, 1e-9);
  }
}

TEST(WorkloadSpecTest, SampleInKlBallVaries) {
  util::Random rng(6);
  WorkloadSpec center{0.25, 0.25, 0.25, 0.25};
  double max_kl = 0.0;
  for (int i = 0; i < 50; ++i) {
    max_kl = std::max(max_kl, KlDivergence(SampleInKlBall(center, 1.0, &rng),
                                           center));
  }
  EXPECT_GT(max_kl, 0.05);
}

TEST(WorkloadSpecTest, InterpolateEndpoints) {
  WorkloadSpec a{1, 0, 0, 0};
  WorkloadSpec b{0, 0, 0, 1};
  EXPECT_DOUBLE_EQ(Interpolate(a, b, 0.0).v, 1.0);
  EXPECT_DOUBLE_EQ(Interpolate(a, b, 1.0).w, 1.0);
  const WorkloadSpec mid = Interpolate(a, b, 0.5);
  EXPECT_DOUBLE_EQ(mid.v, 0.5);
  EXPECT_DOUBLE_EQ(mid.w, 0.5);
}

TEST(CostModelTest, LevelsFormula) {
  CostModel cm(Params());
  const ModelConfig c = Leveled(10.0, 0.0, 128000);
  // L = log_10(40000*1024/128000 + 1) = log_10(321)
  EXPECT_NEAR(cm.Levels(c), std::log(321.0) / std::log(10.0), 1e-9);
}

TEST(CostModelTest, ZeroResultCostMatchesFormula) {
  CostModel cm(Params());
  const double mf = 10.0 * 40000;
  const ModelConfig c = Leveled(10.0, mf, 200000);
  EXPECT_NEAR(cm.ZeroResultLookupCost(c), std::exp(-kLn2Sq * 10.0), 1e-12);
}

TEST(CostModelTest, NonZeroIsZeroPlusOne) {
  CostModel cm(Params());
  const ModelConfig c = Leveled(8.0, 200000, 200000);
  EXPECT_DOUBLE_EQ(cm.NonZeroResultLookupCost(c),
                   cm.ZeroResultLookupCost(c) + 1.0);
}

TEST(CostModelTest, TieringMultipliesPointCostByT) {
  CostModel cm(Params());
  ModelConfig lev = Leveled(6.0, 100000, 200000);
  ModelConfig tier = lev;
  tier.policy = lsm::CompactionPolicy::kTiering;
  EXPECT_NEAR(cm.ZeroResultLookupCost(tier),
              6.0 * cm.ZeroResultLookupCost(lev), 1e-12);
}

TEST(CostModelTest, RangeCostLevelingFormula) {
  CostModel cm(Params());
  const ModelConfig c = Leveled(10.0, 0.0, 128000);
  EXPECT_NEAR(cm.RangeLookupCost(c), cm.Levels(c) + 16.0 / 32.0, 1e-12);
}

TEST(CostModelTest, WriteCostTieringCheaper) {
  CostModel cm(Params());
  ModelConfig lev = Leveled(8.0, 100000, 200000);
  ModelConfig tier = lev;
  tier.policy = lsm::CompactionPolicy::kTiering;
  EXPECT_LT(cm.WriteCost(tier), cm.WriteCost(lev));
  EXPECT_NEAR(cm.WriteCost(lev), cm.Levels(lev) * 8.0 / 32.0, 1e-12);
  EXPECT_NEAR(cm.WriteCost(tier), cm.Levels(tier) / 32.0, 1e-12);
}

TEST(CostModelTest, GeneralizedKInterpolatesPolicies) {
  CostModel cm(Params());
  ModelConfig lev = Leveled(8.0, 100000, 200000);
  ModelConfig k1 = lev;
  k1.runs_per_level = 1;
  ModelConfig k8 = lev;
  k8.runs_per_level = 8;
  ModelConfig tier = lev;
  tier.policy = lsm::CompactionPolicy::kTiering;
  EXPECT_DOUBLE_EQ(cm.ZeroResultLookupCost(k1), cm.ZeroResultLookupCost(lev));
  EXPECT_DOUBLE_EQ(cm.ZeroResultLookupCost(k8),
                   cm.ZeroResultLookupCost(tier));
  EXPECT_DOUBLE_EQ(cm.WriteCost(k8), cm.WriteCost(tier));
}

TEST(CostModelTest, OpCostIsWeightedSum) {
  CostModel cm(Params());
  const ModelConfig c = Leveled(10.0, 100000, 200000);
  WorkloadSpec w{0.1, 0.2, 0.3, 0.4};
  const double expected = 0.1 * cm.ZeroResultLookupCost(c) +
                          0.2 * cm.NonZeroResultLookupCost(c) +
                          0.3 * cm.RangeLookupCost(c) + 0.4 * cm.WriteCost(c);
  EXPECT_NEAR(cm.OpCost(w, c), expected, 1e-12);
}

TEST(CostModelTest, SizeRatioLimitClamped) {
  SystemParams p = Params();
  CostModel cm(p);
  EXPECT_NEAR(cm.SizeRatioLimit(), 65.0, 1.0);
  p.total_memory_bits = 1e12;  // absurdly large memory
  EXPECT_DOUBLE_EQ(CostModel(p).SizeRatioLimit(), 4.0);
  p.total_memory_bits = 1.0;  // absurdly small
  EXPECT_DOUBLE_EQ(CostModel(p).SizeRatioLimit(), 64.0);
}

// ------------------------- optimum solvers --------------------------------

TEST(OptimumTest, SizeRatioRootSolvesEquation5) {
  CostModel cm(Params());
  WorkloadSpec w{0.1, 0.1, 0.3, 0.5};
  const double t = OptimalSizeRatioLeveling(w, cm);
  // Residual of w*T*(lnT - 1) - q*B at the root should be ~0 (if interior).
  if (t < cm.SizeRatioLimit() - 1e-6) {
    const double residual =
        0.5 * t * (std::log(t) - 1.0) - 0.3 * cm.params().block_entries;
    EXPECT_NEAR(residual, 0.0, 1e-3);
  }
}

TEST(OptimumTest, NoWritesPushesToTlim) {
  CostModel cm(Params());
  WorkloadSpec w{0.2, 0.2, 0.6, 0.0};
  EXPECT_NEAR(OptimalSizeRatioLeveling(w, cm), cm.SizeRatioLimit(), 1e-9);
}

TEST(OptimumTest, WriteOnlyNearE) {
  CostModel cm(Params());
  WorkloadSpec w{0.0, 0.0, 0.0, 1.0};
  EXPECT_NEAR(OptimalSizeRatioLeveling(w, cm), std::exp(1.0), 0.3);
}

TEST(OptimumTest, PointOnlyDefaultT) {
  CostModel cm(Params());
  WorkloadSpec w{0.5, 0.5, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(OptimalSizeRatioLeveling(w, cm), 10.0);
}

TEST(OptimumTest, MfZeroWithoutPointReads) {
  CostModel cm(Params());
  WorkloadSpec w{0.0, 0.0, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(OptimalMfBitsLeveling(w, cm, 10.0), 0.0);
}

TEST(OptimumTest, MfGrowsWithPointReadShare) {
  CostModel cm(Params());
  WorkloadSpec mostly_writes{0.1, 0.1, 0.1, 0.7};
  WorkloadSpec mostly_reads{0.7, 0.1, 0.1, 0.1};
  EXPECT_GT(OptimalMfBitsLeveling(mostly_reads, cm, 10.0),
            OptimalMfBitsLeveling(mostly_writes, cm, 10.0));
}

TEST(OptimumTest, AnalyticAndNumericMfAgree) {
  CostModel cm(Params());
  WorkloadSpec w{0.3, 0.3, 0.2, 0.2};
  ModelConfig base = Leveled(10.0, 0.0, 0.0);
  const double analytic = OptimalMfBitsLeveling(w, cm, 10.0);
  const double numeric = OptimalMfBitsNumeric(w, cm, base);
  // Both near-minimize the same cost; compare achieved costs.
  ModelConfig ca = base, cn = base;
  ca.mf_bits = analytic;
  ca.mb_bits = cm.params().total_memory_bits - analytic;
  cn.mf_bits = numeric;
  cn.mb_bits = cm.params().total_memory_bits - numeric;
  EXPECT_NEAR(cm.OpCost(w, ca), cm.OpCost(w, cn),
              0.02 * std::max(cm.OpCost(w, ca), 1e-9));
}

TEST(OptimumTest, MinimizeCostIsLocalOptimum) {
  CostModel cm(Params());
  WorkloadSpec w{0.25, 0.25, 0.25, 0.25};
  const TheoreticalOptimum opt =
      MinimizeCost(w, cm, lsm::CompactionPolicy::kLeveling);
  // Perturbing T or Mf should not reduce the cost by more than numeric fuzz.
  for (double dt : {-1.0, 1.0}) {
    ModelConfig c = opt.config;
    c.size_ratio = std::max(2.0, c.size_ratio + dt);
    EXPECT_GE(cm.OpCost(w, c), opt.cost - 1e-9);
  }
  for (double dm : {-0.1, 0.1}) {
    ModelConfig c = opt.config;
    const double delta = dm * cm.params().total_memory_bits;
    if (c.mf_bits + delta < 0.0 || c.mb_bits - delta < 1024.0) continue;
    c.mf_bits += delta;
    c.mb_bits -= delta;
    EXPECT_GE(cm.OpCost(w, c), opt.cost - 1e-9);
  }
}

TEST(OptimumTest, PolicyChoiceFollowsWorkload) {
  CostModel cm(Params());
  // Write-dominant workloads favor tiering; range-dominant favor leveling.
  WorkloadSpec writes{0.01, 0.01, 0.01, 0.97};
  WorkloadSpec ranges{0.01, 0.01, 0.97, 0.01};
  const auto cost = [&cm](const WorkloadSpec& w,
                          lsm::CompactionPolicy policy) {
    return MinimizeCost(w, cm, policy).cost;
  };
  EXPECT_LT(cost(writes, lsm::CompactionPolicy::kTiering),
            cost(writes, lsm::CompactionPolicy::kLeveling));
  EXPECT_LT(cost(ranges, lsm::CompactionPolicy::kLeveling),
            cost(ranges, lsm::CompactionPolicy::kTiering));
}

TEST(OptimumTest, MemorySplitExhaustsBudget) {
  CostModel cm(Params());
  WorkloadSpec w{0.4, 0.3, 0.2, 0.1};
  const TheoreticalOptimum opt =
      MinimizeCost(w, cm, lsm::CompactionPolicy::kLeveling);
  EXPECT_NEAR(opt.config.mf_bits + opt.config.mb_bits,
              cm.params().total_memory_bits, 1.0);
  EXPECT_GE(opt.config.mb_bits, MinBufferBits(cm.params()) - 1.0);
}

}  // namespace
}  // namespace camal::model
