// Sim-vs-real calibration: the residual corrector's identity and
// determinism contracts, the corrected cost-model plumbing, the engine's
// always-on op-cost profiler, and the Measurement residual fields. Every
// "off" state (no corrector, unfitted corrector) is pinned bit-identical
// to the uncalibrated system.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "camal/classic_tuner.h"
#include "camal/evaluator.h"
#include "camal/residual_corrector.h"
#include "camal/sample.h"
#include "engine/sharded_engine.h"
#include "model/calibrated_cost_model.h"
#include "model/cost_model.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/tables.h"

namespace camal::tune {
namespace {

using model::CostChannel;

SystemSetup TinySetup() {
  SystemSetup setup;
  setup.num_entries = 6000;
  setup.total_memory_bits = 16 * 6000;
  setup.train_ops = 400;
  setup.eval_ops = 800;
  return setup;
}

std::vector<model::ModelConfig> ConfigSweep(const model::SystemParams& params) {
  std::vector<model::ModelConfig> out;
  for (const double t : {2.0, 4.0, 10.0}) {
    for (const double bloom_frac : {0.1, 0.4, 0.6}) {
      model::ModelConfig c;
      c.size_ratio = t;
      c.mf_bits = bloom_frac * params.total_memory_bits;
      c.mb_bits = 0.5 * (params.total_memory_bits - c.mf_bits);
      out.push_back(c);
      c.policy = lsm::CompactionPolicy::kTiering;
      out.push_back(c);
    }
  }
  return out;
}

TEST(ResidualCorrectorTest, UnfittedCorrectorIsBitIdentical) {
  const model::SystemParams params = TinySetup().ToModelParams();
  const model::CostModel plain(params);
  ResidualCorrector corrector;  // never observed, never fitted: identity
  const model::CostModel attached(params, &corrector);

  const model::WorkloadSpec mixes[] = {{0.25, 0.25, 0.25, 0.25},
                                       {0.7, 0.1, 0.1, 0.1},
                                       {0.05, 0.05, 0.0, 0.9}};
  for (const model::WorkloadSpec& w : mixes) {
    for (const model::ModelConfig& c : ConfigSweep(params)) {
      EXPECT_EQ(plain.OpCost(w, c), attached.OpCost(w, c));
    }
  }
}

TEST(ResidualCorrectorTest, FitIsDeterministicAtFixedSeed) {
  ResidualCorrectorOptions opts;
  opts.seed = 7;
  const auto feed = [](ResidualCorrector* rc) {
    for (int i = 1; i <= 12; ++i) {
      const double p = 0.5 * i;
      rc->Observe(CostChannel::kPointLookup, p, 1.7 * p + 0.3);
      rc->Observe(CostChannel::kWrite, p, 0.6 * p);
    }
  };
  ResidualCorrector a(opts);
  ResidualCorrector b(opts);
  feed(&a);
  feed(&b);
  a.Fit();
  b.Fit();

  EXPECT_TRUE(a.fitted(CostChannel::kPointLookup));
  EXPECT_TRUE(a.fitted(CostChannel::kWrite));
  EXPECT_FALSE(a.fitted(CostChannel::kRangeLookup));  // nothing observed
  for (double x = 0.25; x <= 7.0; x += 0.25) {
    EXPECT_EQ(a.Correct(CostChannel::kPointLookup, x),
              b.Correct(CostChannel::kPointLookup, x));
    EXPECT_EQ(a.Correct(CostChannel::kWrite, x),
              b.Correct(CostChannel::kWrite, x));
    // The unobserved channel stays the exact identity.
    EXPECT_EQ(a.Correct(CostChannel::kRangeLookup, x), x);
  }

  // Refitting from the same observations is a pure function: the second
  // Fit reproduces the first bit for bit.
  a.Fit();
  for (double x = 0.25; x <= 7.0; x += 0.25) {
    EXPECT_EQ(a.Correct(CostChannel::kPointLookup, x),
              b.Correct(CostChannel::kPointLookup, x));
  }
}

TEST(ResidualCorrectorTest, FitLearnsSystematicBias) {
  // The engine consistently measures twice the predicted cost; a fitted
  // corrector must move predictions decisively toward measured.
  ResidualCorrector rc;
  for (int i = 1; i <= 16; ++i) {
    const double p = 0.4 * i;
    rc.Observe(CostChannel::kPointLookup, p, 2.0 * p);
  }
  rc.Fit();
  ASSERT_TRUE(rc.fitted(CostChannel::kPointLookup));
  EXPECT_GT(rc.Correct(CostChannel::kPointLookup, 3.2), 3.2 * 1.3);
  // A corrected cost is still a cost.
  EXPECT_GE(rc.Correct(CostChannel::kPointLookup, 0.0), 0.0);
}

TEST(ResidualCorrectorTest, UnderObservedChannelStaysIdentity) {
  ResidualCorrectorOptions opts;
  opts.min_observations = 4;
  ResidualCorrector rc(opts);
  rc.Observe(CostChannel::kRangeLookup, 2.0, 9.0);
  rc.Observe(CostChannel::kRangeLookup, 3.0, 11.0);
  rc.Fit();  // 2 < 4: below the floor
  EXPECT_FALSE(rc.fitted(CostChannel::kRangeLookup));
  EXPECT_EQ(rc.Correct(CostChannel::kRangeLookup, 5.5), 5.5);
}

TEST(CalibratedCostModelTest, UnfittedOwnedCorrectorIsBitIdentical) {
  const model::SystemParams params = TinySetup().ToModelParams();
  const model::CostModel plain(params);
  const model::CalibratedCostModel calibrated(
      params, std::make_shared<ResidualCorrector>());
  const model::CalibratedCostModel null_owned =
      model::MakeCalibratedModel(params, nullptr);
  EXPECT_EQ(null_owned.corrector(), nullptr);

  const model::WorkloadSpec w{0.2, 0.3, 0.2, 0.3};
  for (const model::ModelConfig& c : ConfigSweep(params)) {
    EXPECT_EQ(plain.OpCost(w, c), calibrated.OpCost(w, c));
    EXPECT_EQ(plain.OpCost(w, c), null_owned.OpCost(w, c));
  }
}

TEST(CalibratedCostModelTest, FittedCorrectorShiftsObjectives) {
  const model::SystemParams params = TinySetup().ToModelParams();
  auto rc = std::make_shared<ResidualCorrector>();
  // Point lookups measure 3x their prediction across the observed range.
  for (int i = 1; i <= 16; ++i) {
    const double p = 0.25 * i;
    rc->Observe(CostChannel::kPointLookup, p, 3.0 * p);
  }
  rc->Fit();
  const model::CostModel plain(params);
  const model::CalibratedCostModel calibrated(params, rc);

  const model::WorkloadSpec read_heavy{0.45, 0.45, 0.0, 0.1};
  model::ModelConfig c;
  c.mf_bits = 0.4 * params.total_memory_bits;
  c.mb_bits = 0.4 * params.total_memory_bits;
  EXPECT_GT(calibrated.OpCost(read_heavy, c), plain.OpCost(read_heavy, c));
  // The structural primitives stay uncorrected: only the workload-weighted
  // objectives consume the corrector.
  EXPECT_EQ(calibrated.ZeroResultLookupCost(c), plain.ZeroResultLookupCost(c));
  EXPECT_EQ(calibrated.WriteCost(c), plain.WriteCost(c));
}

TEST(CalibrationTest, IdentityCorrectorLeavesTunerRecommendationUnchanged) {
  // TunerOptions::cost_corrector with an unfitted corrector must recommend
  // exactly what no corrector recommends — the calibration-off sim path is
  // bit-identical.
  const SystemSetup setup = TinySetup();
  const model::SystemParams params = setup.ToModelParams();
  ClassicTuner plain(setup, TunerOptions{});
  TunerOptions calib_opts;
  calib_opts.cost_corrector = std::make_shared<ResidualCorrector>();
  ClassicTuner calibrated(setup, calib_opts);

  const model::WorkloadSpec mixes[] = {{0.25, 0.25, 0.25, 0.25},
                                       {0.6, 0.2, 0.1, 0.1},
                                       {0.05, 0.05, 0.1, 0.8}};
  for (const model::WorkloadSpec& w : mixes) {
    const TuningConfig a = plain.RecommendFor(w, params);
    const TuningConfig b = calibrated.RecommendFor(w, params);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.size_ratio, b.size_ratio);
    EXPECT_EQ(a.mf_bits, b.mf_bits);
    EXPECT_EQ(a.mb_bits, b.mb_bits);
    EXPECT_EQ(a.mc_bits, b.mc_bits);
  }
}

TEST(OpCostProfilerTest, WindowsMatchBatchResultsExactly) {
  const SystemSetup setup = TinySetup();
  engine::ShardedEngine eng(2, MonkeyDefaultConfig(setup).ToOptions(setup),
                            setup.MakeDeviceConfig());
  workload::KeySpace keys(setup.num_entries, setup.seed);
  workload::BulkLoad(&eng, keys);
  eng.ResetOpCostWindows();

  std::vector<engine::Op> ops;
  for (size_t i = 0; i < 300; ++i) {
    engine::Op op;
    op.key = keys.KeyAt(i % keys.num_keys());
    switch (i % 3) {
      case 0:
        op.kind = engine::OpKind::kGet;
        break;
      case 1:
        op.kind = engine::OpKind::kPut;
        op.value = i;
        break;
      default:
        op.kind = engine::OpKind::kScan;
        op.scan_len = 8;
        break;
    }
    ops.push_back(op);
  }
  const std::vector<engine::OpResult> results = eng.ExecuteOps(ops);

  // The profiler's windows are exactly the per-kind sums of the batch's
  // own OpResults — same ops, same ios, same (deterministic) latency.
  std::array<engine::OpCostWindow, engine::kNumOpKinds> expect{};
  for (size_t i = 0; i < ops.size(); ++i) {
    engine::OpCostWindow& cell = expect[static_cast<size_t>(ops[i].kind)];
    cell.ops += 1;
    cell.ios += results[i].ios;
    cell.latency_ns += results[i].latency_ns;
  }
  for (size_t k = 0; k < engine::kNumOpKinds; ++k) {
    const auto kind = static_cast<engine::OpKind>(k);
    const engine::OpCostWindow total = eng.OpCostWindowTotal(kind);
    EXPECT_EQ(total.ops, expect[k].ops);
    EXPECT_EQ(total.ios, expect[k].ios);
    EXPECT_DOUBLE_EQ(total.latency_ns, expect[k].latency_ns);
    // Per-shard windows partition the total.
    engine::OpCostWindow sharded;
    for (size_t s = 0; s < eng.NumShards(); ++s) {
      sharded += eng.ShardOpCostWindow(s, kind);
    }
    EXPECT_EQ(sharded.ops, total.ops);
    EXPECT_EQ(sharded.ios, total.ios);
  }

  eng.ResetOpCostWindows();
  EXPECT_EQ(eng.OpCostWindowTotal(engine::OpKind::kGet).ops, 0u);
}

TEST(CalibrationTest, MeasurementResidualsConsistentAndDeterministic) {
  const SystemSetup setup = TinySetup();
  const Evaluator evaluator(setup);
  const model::WorkloadSpec w{0.2, 0.3, 0.2, 0.3};
  const TuningConfig config = MonkeyDefaultConfig(setup);

  const Measurement m1 = evaluator.Measure(w, config, 800, 5);
  const Measurement m2 = evaluator.Measure(w, config, 800, 5);

  // Every channel served ops under this mix, so predictions, measurements
  // and residuals are all populated, and residual = measured - predicted.
  EXPECT_GT(m1.point_ios_predicted, 0.0);
  EXPECT_GT(m1.point_ios_measured, 0.0);
  EXPECT_GT(m1.range_ios_measured, 0.0);
  EXPECT_GT(m1.write_ios_measured, 0.0);
  EXPECT_EQ(m1.point_ios_residual,
            m1.point_ios_measured - m1.point_ios_predicted);
  EXPECT_EQ(m1.range_ios_residual,
            m1.range_ios_measured - m1.range_ios_predicted);
  EXPECT_EQ(m1.write_ios_residual,
            m1.write_ios_measured - m1.write_ios_predicted);

  // Same salt, sim backend: the whole measurement is bit-reproducible,
  // residual fields included.
  EXPECT_EQ(m1.ios_per_op, m2.ios_per_op);
  EXPECT_EQ(m1.point_ios_measured, m2.point_ios_measured);
  EXPECT_EQ(m1.range_ios_measured, m2.range_ios_measured);
  EXPECT_EQ(m1.write_ios_measured, m2.write_ios_measured);
  EXPECT_EQ(m1.point_ios_residual, m2.point_ios_residual);
}

}  // namespace
}  // namespace camal::tune
