// Bit-identity fingerprint of the simulated engine.
//
// Every simulated clock, counter and latency this repository reports must be
// reproducible to the last bit: figure goldens, the perfbench exact-value
// records and every equality suite depend on it. This suite pins a small set
// of those values as hex-float literals, so a change to the LSM build or read
// path that claims "identical results" has to prove it here. A mismatch
// prints the value found in the same hex form. Only re-capture the literals
// for a change that is meant to move simulated results, and say so in its
// description.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "camal/evaluator.h"
#include "camal/sample.h"
#include "engine/sharded_engine.h"
#include "model/workload_spec.h"
#include "shard_host_schedule.h"
#include "util/thread_pool.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace camal {
namespace {

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

#define EXPECT_BITS(got, want) \
  EXPECT_EQ(got, want) << #got << " = " << Hex(got)

model::WorkloadSpec MixedWorkload() {
  model::WorkloadSpec w;
  w.v = 0.2;
  w.r = 0.3;
  w.q = 0.2;
  w.w = 0.3;
  return w;
}

tune::SystemSetup FingerprintSetup() {
  tune::SystemSetup base;
  base.num_shards = 4;
  base.shard_skew = 0.8;
  return tune::ScaledDown(base, 10);
}

struct SampleCase {
  tune::TuningConfig config;
  uint64_t salt;
  double mean_latency_ns;
  double p90_latency_ns;
  double ios_per_op;
  double cost_ns;
};

std::vector<SampleCase> SampleCases(const tune::SystemSetup& setup) {
  const double m = static_cast<double>(setup.total_memory_bits);
  const double n = static_cast<double>(setup.num_entries);
  std::vector<SampleCase> cases(3);

  // Leveling, 10 bits/key of filters, the rest to the write buffer.
  cases[0].config.policy = lsm::CompactionPolicy::kLeveling;
  cases[0].config.size_ratio = 10.0;
  cases[0].config.mf_bits = 10.0 * n;
  cases[0].config.mb_bits = m - cases[0].config.mf_bits;
  cases[0].salt = 1;
  cases[0].mean_latency_ns = 0x1.b57304dd809ecp+17;
  cases[0].p90_latency_ns = 0x1.c52aedf673c33p+19;
  cases[0].ios_per_op = 0x1.52624dd2f1aap+1;
  cases[0].cost_ns = 0x1.00ba4dac18d85p+31;

  // Tiering with a block cache and split SST files.
  cases[1].config.policy = lsm::CompactionPolicy::kTiering;
  cases[1].config.size_ratio = 4.0;
  cases[1].config.mf_bits = 5.0 * n;
  cases[1].config.mb_bits = 0.25 * m;
  cases[1].config.mc_bits = m - cases[1].config.mf_bits -
                            cases[1].config.mb_bits;
  cases[1].config.file_bytes = 128 * 64;
  cases[1].salt = 2;
  cases[1].mean_latency_ns = 0x1.7d46ffc54507dp+18;
  cases[1].p90_latency_ns = 0x1.a2a1d1dbfbp+20;
  cases[1].ios_per_op = 0x1.1a5e353f7cedap+2;
  cases[1].cost_ns = 0x1.9d9201788af34p+31;

  // No buffer memory: TuningConfig::ToOptions clamps the write buffer to
  // its 4-entry floor (one entry per shard here), the smallest and most
  // run-heavy shape a sampler can build.
  cases[2].config.policy = lsm::CompactionPolicy::kLeveling;
  cases[2].config.size_ratio = 6.0;
  cases[2].config.mf_bits = m;
  cases[2].config.mb_bits = 0.0;
  cases[2].salt = 3;
  cases[2].mean_latency_ns = 0x1.f082c97d7408ap+17;
  cases[2].p90_latency_ns = 0x1.a6913ce2d4066p+19;
  cases[2].ios_per_op = 0x1.c9df3b645a1cbp+1;
  cases[2].cost_ns = 0x1.a9a95a746c03p+31;
  return cases;
}

TEST(SimFingerprintTest, EvaluatorSamplesAreBitIdentical) {
  const tune::SystemSetup setup = FingerprintSetup();
  ASSERT_EQ(setup.num_entries, 4000u);
  const tune::Evaluator evaluator(setup);
  for (const SampleCase& c : SampleCases(setup)) {
    SCOPED_TRACE(c.config.ToString());
    const tune::Sample s =
        evaluator.MakeSample(MixedWorkload(), c.config, c.salt);
    EXPECT_BITS(s.mean_latency_ns, c.mean_latency_ns);
    EXPECT_BITS(s.p90_latency_ns, c.p90_latency_ns);
    EXPECT_BITS(s.ios_per_op, c.ios_per_op);
    EXPECT_BITS(s.cost_ns, c.cost_ns);
  }
}

TEST(SimFingerprintTest, BulkLoadThenMixedRunIsBitIdentical) {
  lsm::Options opts;
  opts.entry_bytes = 128;
  opts.buffer_bytes = 128 * 16;  // 4 entries per shard
  opts.size_ratio = 4.0;
  opts.bloom_bits = 8 * 16000;
  opts.block_cache_bytes = 64 * 1024;
  opts.file_bytes = 128 * 64;
  engine::ShardedEngine eng(4, opts, sim::DeviceConfig{});

  workload::KeySpace keys(16000, 7);
  workload::BulkLoad(&eng, keys);
  workload::ExecutorConfig exec;
  exec.num_ops = 20000;
  exec.seed = 11;
  workload::Execute(&eng, MixedWorkload(), exec, &keys);

  const sim::DeviceSnapshot cost = eng.CostSnapshot();
  EXPECT_EQ(cost.block_reads, 61348u);
  EXPECT_EQ(cost.block_writes, 15441u);
  EXPECT_BITS(cost.elapsed_ns, 0x1.4424595b8bcb2p+32);

  const engine::EngineCounters counters = eng.AggregateCounters();
  EXPECT_EQ(counters.compaction_block_reads, 14774u);
  EXPECT_EQ(counters.compaction_block_writes, 15441u);
  EXPECT_EQ(counters.transition_ios, 0u);
  EXPECT_EQ(counters.flushes, 5507u);
  EXPECT_EQ(counters.merges, 5487u);
}

// The sharding layer's lifecycle paths, pinned: a 16-shard lazy engine
// that hibernates after 2 idle batches serves the shared schedule (scans,
// cold and hibernated ReconfigureShard, Reconfigure, FlushMemtable) on a
// 2-worker pool. Every per-op latency enters `result_hash` bit for bit.
TEST(SimFingerprintTest, ShardLifecycleScheduleIsBitIdentical) {
  const lsm::Options opts = engine::ScheduleOptions(16);
  engine::ShardedEngine eng(
      16, opts, sim::DeviceConfig{},
      engine::ShardLifecycleConfig{/*lazy=*/true,
                                   /*hibernate_after_batches=*/2});
  util::ThreadPool pool(2);
  eng.set_pool(&pool);
  const engine::ScheduleTrace t = engine::RunShardHostSchedule(&eng, opts, 5);

  EXPECT_EQ(t.ops, 1600u);
  EXPECT_EQ(t.result_hash, 0x2d3058e8eccbf27cULL) << std::hex << t.result_hash;
  EXPECT_EQ(t.count_hash, 0x729b32e29acbb2feULL) << std::hex << t.count_hash;
  EXPECT_BITS(t.latency_sum, 0x1.4c24913beab55p+24);
  EXPECT_BITS(t.scan_latency_sum, 0x1.6cdb93e15c8f3p+22);
  EXPECT_EQ(t.ios, 425u);
  EXPECT_EQ(t.found, 62u);
  EXPECT_EQ(t.scan_hits, 246u);

  const engine::EngineCounters c = eng.AggregateCounters();
  EXPECT_EQ(c.compaction_block_reads, 171u);
  EXPECT_EQ(c.compaction_block_writes, 205u);
  EXPECT_EQ(c.transition_ios, 4u);
  EXPECT_EQ(c.flushes, 112u);
  EXPECT_EQ(c.merges, 83u);
  const sim::DeviceSnapshot cost = eng.CostSnapshot();
  EXPECT_EQ(cost.block_reads, 253u);
  EXPECT_EQ(cost.block_writes, 205u);
  EXPECT_BITS(cost.elapsed_ns, 0x1.605841a11ef76p+24);
  EXPECT_EQ(eng.TotalEntries(), 794u);
  EXPECT_EQ(eng.DiskEntries(), 731u);
  EXPECT_EQ(eng.InTransition(), false);
  EXPECT_EQ(engine::LifecycleString(eng), "mmmmmmmmmmmmmmmm");
  EXPECT_EQ(t.lifecycles,
            "mmmmmmmmcccccccc|hhhhhhhhmmmmmmmc|mmmmmmmmmmmmmmmm|"
            "mmhhhhhhhhhhhhhh|mmmmmmmmmmmmmmmm|");
}

// Range scans over memtables that buffer long tombstone runs and
// overwrites above flushed runs (`RunScanSchedule`): scans of length 1, 16
// and 200 from before, inside and past the buffered range, alone and
// interleaved with writes. Every per-op latency enters `result_hash`, and
// every entry the closing direct scans return enters `entry_hash`.
TEST(SimFingerprintTest, ScanOverBufferedTombstonesIsBitIdentical) {
  const lsm::Options opts = engine::ScanScheduleOptions(4);
  engine::ShardedEngine eng(4, opts, sim::DeviceConfig{});
  const engine::ScheduleTrace t = engine::RunScanSchedule(&eng);

  EXPECT_EQ(t.ops, 168u);
  EXPECT_EQ(t.result_hash, 0x9601234b6e661b1bULL) << std::hex << t.result_hash;
  EXPECT_EQ(t.count_hash, 0x1220baae87a9114eULL) << std::hex << t.count_hash;
  EXPECT_BITS(t.latency_sum, 0x1.0a39e2b9f2976p+26);
  EXPECT_BITS(t.scan_latency_sum, 0x1.091e6ae46af0ap+26);
  EXPECT_EQ(t.ios, 639u);
  EXPECT_EQ(t.found, 10u);
  EXPECT_EQ(t.scan_hits, 7270u);
  EXPECT_EQ(t.entry_hash, 0xa2fc55db6c7f85dfULL) << std::hex << t.entry_hash;

  const engine::EngineCounters c = eng.AggregateCounters();
  EXPECT_EQ(c.compaction_block_reads, 286u);
  EXPECT_EQ(c.compaction_block_writes, 381u);
  EXPECT_EQ(c.transition_ios, 0u);
  EXPECT_EQ(c.flushes, 16u);
  EXPECT_EQ(c.merges, 12u);
  const sim::DeviceSnapshot cost = eng.CostSnapshot();
  EXPECT_EQ(cost.block_reads, 1138u);
  EXPECT_EQ(cost.block_writes, 381u);
  EXPECT_BITS(cost.elapsed_ns, 0x1.b44e14b745f7fp+26);
  EXPECT_EQ(eng.TotalEntries(), 3820u);
  EXPECT_EQ(eng.DiskEntries(), 3000u);
}

}  // namespace
}  // namespace camal
