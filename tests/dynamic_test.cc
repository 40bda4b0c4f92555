#include <gtest/gtest.h>

#include "camal/classic_tuner.h"
#include "camal/dynamic_tuner.h"
#include "camal/extrapolation.h"
#include "camal/sample.h"
#include "engine/sharded_engine.h"
#include "workload/tables.h"

namespace camal::tune {
namespace {

SystemSetup TinySetup() {
  SystemSetup setup;
  setup.num_entries = 6000;
  setup.total_memory_bits = 16 * 6000;
  setup.train_ops = 400;
  setup.eval_ops = 800;
  return setup;
}

// Recommender used by the tests: the closed-form classic tuner (cheap,
// deterministic, workload-sensitive).
RecommendFn ClassicRecommender(const SystemSetup& setup) {
  auto tuner = std::make_shared<ClassicTuner>(setup, TunerOptions{});
  return [tuner](const model::WorkloadSpec& w,
                 const model::SystemParams& target) {
    return tuner->RecommendFor(w, target);
  };
}

TEST(DynamicTunerTest, InitialWindowTriggersReconfiguration) {
  const SystemSetup setup = TinySetup();
  workload::KeySpace keys(setup.num_entries, setup.seed);
  engine::ShardedEngine eng(1, MonkeyDefaultConfig(setup).ToOptions(setup),
                            setup.device);
  workload::BulkLoad(&eng, keys);

  DynamicTuner::Params params;
  params.window_ops = 200;
  params.tau = 0.1;
  DynamicTuner dyn(ClassicRecommender(setup), setup, params);
  dyn.RunPhase(&eng, &keys, model::WorkloadSpec{0.25, 0.25, 0.25, 0.25},
               600, 1);
  EXPECT_GE(dyn.reconfigurations(), 1u);
}

TEST(DynamicTunerTest, ShiftTriggersRetune) {
  const SystemSetup setup = TinySetup();
  workload::KeySpace keys(setup.num_entries, setup.seed);
  engine::ShardedEngine eng(1, MonkeyDefaultConfig(setup).ToOptions(setup),
                            setup.device);
  workload::BulkLoad(&eng, keys);

  DynamicTuner::Params params;
  params.window_ops = 300;
  params.tau = 0.1;
  DynamicTuner dyn(ClassicRecommender(setup), setup, params);
  dyn.RunPhase(&eng, &keys, model::WorkloadSpec{0.05, 0.05, 0.0, 0.9}, 900,
               1);
  const size_t after_writes = dyn.reconfigurations();
  dyn.RunPhase(&eng, &keys, model::WorkloadSpec{0.05, 0.05, 0.9, 0.0}, 900,
               2);
  EXPECT_GT(dyn.reconfigurations(), after_writes);
  // The applied config should reflect the range-heavy estimate: large T.
  EXPECT_GT(dyn.last_applied().size_ratio, 8.0);
}

TEST(DynamicTunerTest, StableWorkloadReconfiguresOnce) {
  const SystemSetup setup = TinySetup();
  workload::KeySpace keys(setup.num_entries, setup.seed);
  engine::ShardedEngine eng(1, MonkeyDefaultConfig(setup).ToOptions(setup),
                            setup.device);
  workload::BulkLoad(&eng, keys);

  DynamicTuner::Params params;
  params.window_ops = 200;
  params.tau = 0.15;
  DynamicTuner dyn(ClassicRecommender(setup), setup, params);
  for (int phase = 0; phase < 3; ++phase) {
    dyn.RunPhase(&eng, &keys, model::WorkloadSpec{0.25, 0.25, 0.25, 0.25},
                 600, static_cast<uint64_t>(phase));
  }
  EXPECT_EQ(dyn.reconfigurations(), 1u);
}

TEST(DynamicTunerTest, DataGrowsDuringPhases) {
  const SystemSetup setup = TinySetup();
  workload::KeySpace keys(setup.num_entries, setup.seed);
  engine::ShardedEngine eng(1, MonkeyDefaultConfig(setup).ToOptions(setup),
                            setup.device);
  workload::BulkLoad(&eng, keys);
  const uint64_t before = eng.TotalEntries();

  DynamicTuner::Params params;
  DynamicTuner dyn(ClassicRecommender(setup), setup, params);
  dyn.RunPhase(&eng, &keys, model::WorkloadSpec{0.0, 0.0, 0.0, 1.0}, 2000,
               1);
  EXPECT_GT(eng.TotalEntries(), before + 1500);
  EXPECT_EQ(keys.num_keys(), setup.num_entries + 2000);
}

TEST(DynamicTunerTest, OneShardEngineBitIdenticalToDirectTree) {
  // The dynamic path through a 1-shard ShardedEngine reproduces a run that
  // drove a bare LsmTree through this schedule: the literals are that
  // run's simulated time, I/O and detector firings, bit for bit.
  const SystemSetup setup = TinySetup();
  DynamicTuner::Params params;
  params.window_ops = 250;
  params.tau = 0.1;

  engine::ShardedEngine eng(1, MonkeyDefaultConfig(setup).ToOptions(setup),
                            setup.MakeDeviceConfig());
  DynamicTuner dyn(ClassicRecommender(setup), setup, params);
  workload::KeySpace keys(setup.num_entries, setup.seed);
  workload::BulkLoad(&eng, keys);
  const workload::ExecutionResult r1 = dyn.RunPhase(
      &eng, &keys, model::WorkloadSpec{0.1, 0.1, 0.0, 0.8}, 700, 1);
  const workload::ExecutionResult r2 = dyn.RunPhase(
      &eng, &keys, model::WorkloadSpec{0.1, 0.1, 0.7, 0.1}, 700, 2);

  EXPECT_EQ(r1.total_ns + r2.total_ns, 0x1.84c85e7111fd6p+26);  // bit-exact
  EXPECT_EQ(r1.total_ios + r2.total_ios, 1579u);
  EXPECT_EQ(dyn.reconfigurations(), 3u);
}

TEST(DynamicTunerTest, ShardedEngineRetunesShardsIndependently) {
  const SystemSetup setup = TinySetup();
  engine::ShardedEngine eng(2, MonkeyDefaultConfig(setup).ToOptions(setup),
                            setup.MakeDeviceConfig());
  workload::KeySpace keys(setup.num_entries, setup.seed);
  workload::BulkLoad(&eng, keys);
  const double t0_before = eng.shard(0)->options().size_ratio;
  const double t1_before = eng.shard(1)->options().size_ratio;

  DynamicTuner::Params params;
  params.window_ops = 200;  // per shard: each sees ~half the stream
  params.tau = 0.1;
  DynamicTuner dyn(ClassicRecommender(setup), setup, params);
  dyn.RunPhase(&eng, &keys, model::WorkloadSpec{0.05, 0.05, 0.0, 0.9}, 1200,
               1);

  // Both shards completed their initial windows and were retuned
  // independently (write-heavy mix: the classic tuner moves T down from
  // the Monkey default on both).
  EXPECT_GE(dyn.reconfigurations(), 2u);
  EXPECT_NE(eng.shard(0)->options().size_ratio, t0_before);
  EXPECT_NE(eng.shard(1)->options().size_ratio, t1_before);

  // Data stays correct across per-shard reconfigurations.
  uint64_t value = 0;
  EXPECT_TRUE(eng.Get(keys.KeyAt(0), &value));
  EXPECT_TRUE(eng.Get(keys.KeyAt(100), &value));
}

TEST(DynamicTunerTest, TreeStaysCorrectAcrossReconfigurations) {
  const SystemSetup setup = TinySetup();
  workload::KeySpace keys(setup.num_entries, setup.seed);
  engine::ShardedEngine eng(1, MonkeyDefaultConfig(setup).ToOptions(setup),
                            setup.device);
  workload::BulkLoad(&eng, keys);

  DynamicTuner::Params params;
  params.window_ops = 150;
  params.tau = 0.05;
  DynamicTuner dyn(ClassicRecommender(setup), setup, params);
  const auto shifting = workload::ShiftingWorkloads();
  for (size_t i = 0; i < 6; ++i) {
    const auto result = dyn.RunPhase(&eng, &keys, shifting[i * 4], 500, i);
    // Workloads with non-zero-result lookups must find keys; zero-result
    // lookups must miss (odd keys are never inserted).
    if (shifting[i * 4].r > 0.1) {
      EXPECT_GT(result.lookups_found, 0u);
    }
    if (shifting[i * 4].v > 0.1) {
      EXPECT_GT(result.lookups_missed, 0u);
    }
  }
  // Spot check a few original keys survived every transition.
  uint64_t value = 0;
  EXPECT_TRUE(eng.Get(keys.KeyAt(0), &value));
  EXPECT_TRUE(eng.Get(keys.KeyAt(100), &value));
}

}  // namespace
}  // namespace camal::tune
