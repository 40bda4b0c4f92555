// Counter fingerprint of the real-IO engine's sharding layer.
//
// `FileEngine` measures latencies with a real clock, so they vary run to
// run; everything else it reports is deterministic: found flags, scan
// hits, per-op block counts, `EngineCounters`, run-file structure and
// the shard lifecycle. This suite pins those values for the shared
// lifecycle schedule on a 4-shard engine, so a change to the sharding
// layer that claims identical behaviour has to reproduce them exactly.

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "engine/file_engine.h"
#include "shard_host_schedule.h"
#include "util/thread_pool.h"

namespace camal::engine {
namespace {

std::string Workdir() {
  const char* env = std::getenv("CAMAL_FILE_WORKDIR");
  return std::string(env != nullptr ? env : ::testing::TempDir()) +
         "/camal_file_fingerprint_" +
         std::to_string(FileEngine::NextUniqueId());
}

TEST(FileFingerprintTest, ShardLifecycleScheduleCountersAreDeterministic) {
  const lsm::Options opts = ScheduleOptions(4);
  FileEngineConfig cfg;
  cfg.workdir = Workdir();
  cfg.lifecycle = ShardLifecycleConfig{/*lazy=*/true,
                                       /*hibernate_after_batches=*/2};
  FileEngine eng(4, opts, cfg);
  util::ThreadPool pool(2);
  eng.set_pool(&pool);
  const ScheduleTrace t = RunShardHostSchedule(&eng, opts, 5);

  EXPECT_EQ(t.ops, 1600u);
  EXPECT_EQ(t.count_hash, 0x2245985fbd3ab780ULL) << std::hex << t.count_hash;
  EXPECT_EQ(t.ios, 504u);
  EXPECT_EQ(t.found, 77u);
  EXPECT_EQ(t.scan_hits, 382u);

  const EngineCounters c = eng.AggregateCounters();
  EXPECT_EQ(c.compaction_block_reads, 224u);
  EXPECT_EQ(c.compaction_block_writes, 113u);
  EXPECT_EQ(c.transition_ios, 0u);
  EXPECT_EQ(c.flushes, 123u);
  EXPECT_EQ(c.merges, 112u);
  const sim::DeviceSnapshot cost = eng.CostSnapshot();
  EXPECT_EQ(cost.block_reads, 279u);
  EXPECT_EQ(cost.block_writes, 236u);
  EXPECT_EQ(eng.TotalEntries(), 794u);
  EXPECT_EQ(eng.DiskEntries(), 779u);
  EXPECT_EQ(eng.InTransition(), false);
  EXPECT_EQ(LifecycleString(eng), "mmmm");
  EXPECT_EQ(t.lifecycles, "mmcc|hhmc|mmmm|mmhh|mmmm|");
  std::string runs;
  for (size_t s = 0; s < eng.NumShards(); ++s) {
    runs += std::to_string(eng.ShardRunCount(s)) + " ";
  }
  EXPECT_EQ(runs, "3 3 2 3 ");
}

// The file backend's scan path over memtables that buffer long tombstone
// runs and overwrites above flushed runs (`RunScanSchedule`): per-op block
// reads, found flags and scan hits, the entries direct scans return, plus
// the engine's counters.
TEST(FileFingerprintTest, ScanOverBufferedTombstonesCountersAreDeterministic) {
  const lsm::Options opts = ScanScheduleOptions(4);
  FileEngineConfig cfg;
  cfg.workdir = Workdir();
  FileEngine eng(4, opts, cfg);
  const ScheduleTrace t = RunScanSchedule(&eng);

  EXPECT_EQ(t.ops, 168u);
  EXPECT_EQ(t.count_hash, 0xd840b22369c3d33fULL) << std::hex << t.count_hash;
  EXPECT_EQ(t.ios, 20u);
  EXPECT_EQ(t.found, 10u);
  EXPECT_EQ(t.scan_hits, 7270u);
  EXPECT_EQ(t.entry_hash, 0xa2fc55db6c7f85dfULL) << std::hex << t.entry_hash;

  const EngineCounters c = eng.AggregateCounters();
  EXPECT_EQ(c.compaction_block_reads, 60u);
  EXPECT_EQ(c.compaction_block_writes, 48u);
  EXPECT_EQ(c.flushes, 16u);
  EXPECT_EQ(c.merges, 12u);
  const sim::DeviceSnapshot cost = eng.CostSnapshot();
  EXPECT_EQ(cost.block_reads, 80u);
  EXPECT_EQ(cost.block_writes, 80u);
  EXPECT_EQ(eng.TotalEntries(), 3820u);
  EXPECT_EQ(eng.DiskEntries(), 3000u);
}

}  // namespace
}  // namespace camal::engine
