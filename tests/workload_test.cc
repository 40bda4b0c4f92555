#include <vector>

#include <gtest/gtest.h>

#include "engine/sharded_engine.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/shift_detector.h"
#include "workload/tables.h"

namespace camal::workload {
namespace {

TEST(TablesTest, TrainingWorkloadsCountAndNormalization) {
  const auto workloads = TrainingWorkloads();
  ASSERT_EQ(workloads.size(), 15u);
  for (const auto& w : workloads) {
    EXPECT_NEAR(w.Total(), 1.0, 1e-9);
  }
  // Spot checks against Table 1.
  EXPECT_NEAR(workloads[0].v, 0.25, 1e-9);
  EXPECT_NEAR(workloads[1].v, 0.97, 1e-9);
  EXPECT_NEAR(workloads[4].w, 0.97, 1e-9);
  EXPECT_NEAR(workloads[11].v, 0.33, 1e-2);
  EXPECT_NEAR(workloads[14].v, 0.01, 1e-2);
}

TEST(TablesTest, ShiftingWorkloadsCountAndShape) {
  const auto workloads = ShiftingWorkloads();
  ASSERT_EQ(workloads.size(), 24u);
  for (const auto& w : workloads) EXPECT_NEAR(w.Total(), 1.0, 1e-9);
  // Columns 3, 9, 15, 21 are the 91% peaks of v, r, q, w respectively.
  EXPECT_NEAR(workloads[2].v, 0.91, 1e-9);
  EXPECT_NEAR(workloads[8].r, 0.91, 1e-9);
  EXPECT_NEAR(workloads[14].q, 0.91, 1e-9);
  EXPECT_NEAR(workloads[20].w, 0.91, 1e-9);
}

TEST(TablesTest, ShiftingWorkloadsChangeGradually) {
  const auto workloads = ShiftingWorkloads();
  for (size_t i = 1; i < workloads.size(); ++i) {
    const double jump = std::fabs(workloads[i].v - workloads[i - 1].v) +
                        std::fabs(workloads[i].r - workloads[i - 1].r) +
                        std::fabs(workloads[i].q - workloads[i - 1].q) +
                        std::fabs(workloads[i].w - workloads[i - 1].w);
    EXPECT_LE(jump, 0.61) << "between workloads " << i - 1 << " and " << i;
  }
}

TEST(KeySpaceTest, KeysAreEvenAndUnique) {
  KeySpace keys(1000, 7);
  std::vector<bool> seen(4002, false);
  for (uint64_t k : keys.keys()) {
    EXPECT_EQ(k % 2, 0u);
    ASSERT_LT(k, seen.size());
    EXPECT_FALSE(seen[k]);
    seen[k] = true;
  }
}

TEST(KeySpaceTest, MissingKeysAreOdd) {
  KeySpace keys(100, 7);
  util::Random rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(keys.MissingKey(&rng) % 2, 1u);
}

TEST(KeySpaceTest, AppendGrowsPopulation) {
  KeySpace keys(10, 7);
  const uint64_t added = keys.AppendKey();
  EXPECT_EQ(keys.num_keys(), 11u);
  EXPECT_EQ(added % 2, 0u);
  EXPECT_EQ(keys.KeyAt(10), added);
}

TEST(KeySpaceTest, ShuffleIsDeterministicPerSeed) {
  KeySpace a(100, 42), b(100, 42), c(100, 43);
  EXPECT_EQ(a.keys(), b.keys());
  EXPECT_NE(a.keys(), c.keys());
}

TEST(GeneratorTest, MixMatchesSpec) {
  KeySpace keys(1000, 1);
  model::WorkloadSpec spec{0.4, 0.3, 0.2, 0.1};
  OperationGenerator gen(spec, &keys, GeneratorConfig{}, 5);
  int counts[5] = {0, 0, 0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<int>(gen.Next().type)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.4, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.2, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_EQ(counts[4], 0);  // no deletes by default
}

TEST(GeneratorTest, DeleteFractionRespected) {
  KeySpace keys(1000, 1);
  model::WorkloadSpec spec{0.0, 0.0, 0.0, 1.0};
  spec.delete_frac = 0.25;
  OperationGenerator gen(spec, &keys, GeneratorConfig{}, 5);
  int deletes = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    deletes += gen.Next().type == OpType::kDelete;
  }
  EXPECT_NEAR(deletes / static_cast<double>(n), 0.25, 0.02);
}

TEST(GeneratorTest, ZeroLookupsUseMissingKeys) {
  KeySpace keys(500, 1);
  model::WorkloadSpec spec{1.0, 0.0, 0.0, 0.0};
  OperationGenerator gen(spec, &keys, GeneratorConfig{}, 5);
  for (int i = 0; i < 200; ++i) {
    const Operation op = gen.Next();
    EXPECT_EQ(op.type, OpType::kZeroResultLookup);
    EXPECT_EQ(op.key % 2, 1u);
  }
}

TEST(GeneratorTest, SkewConcentratesAccesses) {
  KeySpace keys(1000, 1);
  model::WorkloadSpec spec{0.0, 1.0, 0.0, 0.0};
  spec.skew = 0.9;
  OperationGenerator gen(spec, &keys, GeneratorConfig{}, 5);
  std::map<uint64_t, int> hist;
  const int n = 10000;
  for (int i = 0; i < n; ++i) ++hist[gen.Next().key];
  int max_hits = 0;
  for (const auto& [k, c] : hist) max_hits = std::max(max_hits, c);
  // Uniform would put ~10 hits on each key; skew concentrates far more.
  EXPECT_GT(max_hits, 300);
}

TEST(GeneratorTest, InsertNewKeysGrowsKeySpace) {
  KeySpace keys(100, 1);
  model::WorkloadSpec spec{0.0, 0.0, 0.0, 1.0};
  GeneratorConfig cfg;
  cfg.insert_new_keys = true;
  OperationGenerator gen(spec, &keys, cfg, 5);
  for (int i = 0; i < 50; ++i) gen.Next();
  EXPECT_EQ(keys.num_keys(), 150u);
}

TEST(ExecutorTest, RunsWorkloadAndFindsKeys) {
  sim::DeviceConfig dev_cfg;
  dev_cfg.io_jitter_frac = 0.0;
  lsm::Options opts;
  opts.entry_bytes = 128;
  opts.buffer_bytes = 128 * 64;
  opts.bloom_bits = 10 * 3000;
  engine::ShardedEngine eng(1, opts, dev_cfg);
  KeySpace keys(3000, 11);
  BulkLoad(&eng, keys);

  model::WorkloadSpec spec{0.3, 0.5, 0.1, 0.1};
  ExecutorConfig cfg;
  cfg.num_ops = 2000;
  cfg.seed = 3;
  const ExecutionResult result = Execute(&eng, spec, cfg, &keys);
  EXPECT_EQ(result.num_ops, 2000u);
  EXPECT_GT(result.total_ns, 0.0);
  // Every non-zero lookup must find its key; zero lookups must all miss.
  EXPECT_NEAR(static_cast<double>(result.lookups_found) /
                  static_cast<double>(result.lookups_found +
                                      result.lookups_missed),
              0.5 / 0.8, 0.05);
}

TEST(ExecutorTest, LatencySketchMatchesTotals) {
  sim::DeviceConfig dev_cfg;
  dev_cfg.io_jitter_frac = 0.0;
  lsm::Options opts;
  opts.entry_bytes = 128;
  opts.buffer_bytes = 128 * 64;
  engine::ShardedEngine eng(1, opts, dev_cfg);
  KeySpace keys(500, 11);
  BulkLoad(&eng, keys);
  ExecutorConfig cfg;
  cfg.num_ops = 500;
  ExecutionResult result =
      Execute(&eng, model::WorkloadSpec{0.25, 0.25, 0.25, 0.25}, cfg, &keys);
  EXPECT_EQ(result.latency_ns.count(), 500u);
  EXPECT_NEAR(result.latency_ns.Mean() * 500.0, result.total_ns, 1.0);
}

TEST(ShiftDetectorTest, FirstWindowTriggersInitialTuning) {
  ShiftDetector det(100, 0.1);
  bool triggered = false;
  for (int i = 0; i < 100; ++i) {
    triggered = det.Record(OpType::kWrite);
  }
  EXPECT_TRUE(triggered);
  EXPECT_EQ(det.reconfigurations(), 1u);
}

TEST(ShiftDetectorTest, StableWorkloadNoRetrigger) {
  ShiftDetector det(100, 0.1);
  for (int w = 0; w < 5; ++w) {
    bool triggered = false;
    for (int i = 0; i < 100; ++i) {
      triggered = det.Record(i % 2 == 0 ? OpType::kWrite
                                        : OpType::kNonZeroResultLookup);
    }
    if (w == 0) {
      EXPECT_TRUE(triggered);
    } else {
      EXPECT_FALSE(triggered);
    }
  }
  EXPECT_EQ(det.reconfigurations(), 1u);
}

TEST(ShiftDetectorTest, LargeShiftTriggers) {
  ShiftDetector det(100, 0.1);
  for (int i = 0; i < 100; ++i) det.Record(OpType::kWrite);  // reference: 100% w
  bool triggered = false;
  for (int i = 0; i < 100; ++i) {
    triggered = det.Record(OpType::kRangeLookup);  // now 100% q
  }
  EXPECT_TRUE(triggered);
  EXPECT_EQ(det.reconfigurations(), 2u);
  EXPECT_NEAR(det.LastWindowSpec().q, 1.0, 1e-9);
}

TEST(ShiftDetectorTest, SmallShiftBelowTauIgnored) {
  ShiftDetector det(100, 0.2);
  for (int i = 0; i < 100; ++i) {
    det.Record(i < 50 ? OpType::kWrite : OpType::kNonZeroResultLookup);
  }
  // Shift by 10% < tau=20%: no trigger.
  bool triggered = false;
  for (int i = 0; i < 100; ++i) {
    triggered = det.Record(i < 60 ? OpType::kWrite
                                  : OpType::kNonZeroResultLookup);
  }
  EXPECT_FALSE(triggered);
}

TEST(ShiftDetectorTest, DeletesCountAsWrites) {
  ShiftDetector det(10, 0.1);
  for (int i = 0; i < 10; ++i) det.Record(OpType::kDelete);
  EXPECT_NEAR(det.LastWindowSpec().w, 1.0, 1e-9);
}

TEST(GeneratorTest, ShardSkewConcentratesTrafficOnHotShards) {
  const size_t num_shards = 4;
  KeySpace keys(8000, 42);
  GeneratorConfig cfg;
  cfg.shard_skew = 1.0;
  cfg.num_shards = num_shards;
  OperationGenerator gen(model::WorkloadSpec{0.2, 0.3, 0.2, 0.3}, &keys, cfg,
                         /*seed=*/9);
  std::vector<size_t> hits(num_shards, 0);
  for (int i = 0; i < 8000; ++i) {
    const Operation op = gen.Next();
    if (op.type == OpType::kRangeLookup) continue;  // probes every shard
    ++hits[util::Mix64(op.key) % num_shards];
  }
  // Zipf(1.0) over shard index: strictly decreasing, and the hottest
  // shard must see several times the coldest's traffic.
  for (size_t s = 1; s < num_shards; ++s) {
    EXPECT_LT(hits[s], hits[s - 1]) << "shard " << s;
  }
  EXPECT_GT(hits[0], 3 * hits[num_shards - 1]);
}

TEST(GeneratorTest, ZeroShardSkewIsBitIdenticalToUnbiasedStream) {
  KeySpace keys_a(2000, 42);
  KeySpace keys_b(2000, 42);
  GeneratorConfig plain;
  GeneratorConfig zero_skew;
  zero_skew.shard_skew = 0.0;
  zero_skew.num_shards = 8;  // must be inert while skew is 0
  OperationGenerator gen_a(model::WorkloadSpec{0.2, 0.3, 0.2, 0.3}, &keys_a,
                           plain, /*seed=*/5);
  OperationGenerator gen_b(model::WorkloadSpec{0.2, 0.3, 0.2, 0.3}, &keys_b,
                           zero_skew, /*seed=*/5);
  for (int i = 0; i < 3000; ++i) {
    const Operation a = gen_a.Next();
    const Operation b = gen_b.Next();
    ASSERT_EQ(static_cast<int>(a.type), static_cast<int>(b.type)) << i;
    ASSERT_EQ(a.key, b.key) << i;
    ASSERT_EQ(a.value, b.value) << i;
  }
}

}  // namespace
}  // namespace camal::workload
