// Range scans checked against an independent oracle.
//
// Every other scan suite compares two paths of the same engine (lazy vs
// eager, ring vs pread, one shard vs a direct `LsmTree`), so a bug both
// paths share passes them. Here a plain `std::map` is the reference: after
// each step of a fixed scenario and of a seeded random trace, `Scan` must
// return exactly the oracle's next live entries and every `ExecuteOps`
// scan must report exactly as many hits. The scenario covers an empty
// engine, memtable-only data, a memtable tombstone run longer than a scan
// that shadows flushed keys, start keys past every key and limits 0 and 1.
// It runs on a 1-shard `ShardedEngine` (whose `Scan` forwards straight to
// `LsmTree::Scan`), a 4-shard `ShardedEngine` inline and on a 2-worker
// pool, and a 3-shard `FileEngine` on the pread path.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/file_engine.h"
#include "engine/sharded_engine.h"
#include "util/thread_pool.h"

namespace camal::engine {
namespace {

enum class Backend { kOneShard, kShardedInline, kShardedPool, kFile };

constexpr size_t kBufferPerShard = 512;
constexpr size_t kLengths[] = {0, 1, 16, 200};

std::string BackendName(const ::testing::TestParamInfo<Backend>& info) {
  switch (info.param) {
    case Backend::kOneShard: return "OneShard";
    case Backend::kShardedInline: return "ShardedInline";
    case Backend::kShardedPool: return "ShardedPool";
    case Backend::kFile: return "FilePread";
  }
  return "";
}

lsm::Options TotalOptions(size_t num_shards) {
  lsm::Options opts;
  opts.entry_bytes = 128;
  opts.buffer_bytes = 128 * kBufferPerShard * num_shards;
  opts.size_ratio = 4.0;
  opts.bloom_bits = 8 * 4000;
  opts.block_cache_bytes = 8 * 4096 * num_shards;
  return opts;
}

/// One engine under test plus the oracle it must agree with.
class ScanOracleTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case Backend::kOneShard:
        eng_ = std::make_unique<ShardedEngine>(1, TotalOptions(1),
                                               sim::DeviceConfig{});
        break;
      case Backend::kShardedInline:
      case Backend::kShardedPool: {
        auto sharded = std::make_unique<ShardedEngine>(4, TotalOptions(4),
                                                       sim::DeviceConfig{});
        if (GetParam() == Backend::kShardedPool) {
          pool_ = std::make_unique<util::ThreadPool>(2);
          sharded->set_pool(pool_.get());
        }
        eng_ = std::move(sharded);
        break;
      }
      case Backend::kFile: {
        FileEngineConfig cfg;
        const char* env = std::getenv("CAMAL_FILE_WORKDIR");
        cfg.workdir = std::string(env != nullptr ? env : ::testing::TempDir()) +
                      "/camal_scan_oracle_" +
                      std::to_string(FileEngine::NextUniqueId());
        cfg.io_mode = IoMode::kPread;
        eng_ = std::make_unique<FileEngine>(3, TotalOptions(3), cfg);
        break;
      }
    }
  }

  void Put(uint64_t key, uint64_t value) {
    eng_->Put(key, value);
    oracle_[key] = value;
  }
  void Delete(uint64_t key) {
    eng_->Delete(key);
    oracle_.erase(key);
  }

  /// The oracle's answer: the first `max_entries` live keys >= start_key.
  std::vector<lsm::Entry> Expected(uint64_t start_key,
                                   size_t max_entries) const {
    std::vector<lsm::Entry> want;
    for (auto it = oracle_.lower_bound(start_key);
         it != oracle_.end() && want.size() < max_entries; ++it) {
      want.push_back(lsm::Entry{it->first, it->second, false});
    }
    return want;
  }

  void ExpectScan(uint64_t start_key, size_t max_entries) {
    SCOPED_TRACE("Scan(" + std::to_string(start_key) + ", " +
                 std::to_string(max_entries) + ")");
    const std::vector<lsm::Entry> want = Expected(start_key, max_entries);
    std::vector<lsm::Entry> got;
    EXPECT_EQ(eng_->Scan(start_key, max_entries, &got), want.size());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].key, want[i].key) << "entry " << i;
      EXPECT_EQ(got[i].value, want[i].value) << "entry " << i;
      EXPECT_FALSE(got[i].tombstone) << "entry " << i;
    }
  }

  /// Checks `Scan` at every start and length, then the same probes as one
  /// `ExecuteOps` batch of scans.
  void ExpectScans(const std::vector<uint64_t>& starts) {
    std::vector<Op> ops;
    for (const uint64_t start : starts) {
      for (const size_t len : kLengths) {
        ExpectScan(start, len);
        ops.push_back(Op{OpKind::kScan, start, 0, len});
      }
    }
    std::vector<OpResult> results(ops.size());
    eng_->ExecuteOps(ops.data(), ops.size(), results.data());
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(results[i].scan_hits,
                Expected(ops[i].key, ops[i].scan_len).size())
          << "ExecuteOps scan from " << ops[i].key << ", length "
          << ops[i].scan_len;
    }
  }

  /// Runs `ops` as one batch, checking each scan against the oracle as of
  /// its position in the batch.
  void ExpectBatch(const std::vector<Op>& ops) {
    std::vector<OpResult> results(ops.size());
    eng_->ExecuteOps(ops.data(), ops.size(), results.data());
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      switch (op.kind) {
        case OpKind::kPut: oracle_[op.key] = op.value; break;
        case OpKind::kDelete: oracle_.erase(op.key); break;
        case OpKind::kGet:
          EXPECT_EQ(results[i].found, oracle_.count(op.key) == 1)
              << "Get(" << op.key << ") at op " << i;
          break;
        case OpKind::kScan:
          EXPECT_EQ(results[i].scan_hits,
                    Expected(op.key, op.scan_len).size())
              << "scan from " << op.key << ", length " << op.scan_len
              << " at op " << i;
          break;
      }
    }
  }

  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<StorageEngine> eng_;
  std::map<uint64_t, uint64_t> oracle_;
};

// Starts before, at, between and past the keys a scenario writes.
const std::vector<uint64_t> kStarts = {0,    1,    399,  400,  401,  650,
                                       999,  1000, 1001, 1998, 3999, 4000,
                                       4001, 1ULL << 40, ~0ULL};

TEST_P(ScanOracleTest, ScenarioMatchesOracle) {
  // Empty engine: nothing buffered, nothing flushed.
  ExpectScans(kStarts);

  // Memtable-only data: even keys [0, 400) stay buffered.
  for (uint64_t k = 0; k < 400; k += 2) Put(k, 3 * k + 1);
  ExpectScans(kStarts);

  // Empty memtable over runs: even keys [0, 4000) flushed.
  for (uint64_t k = 400; k < 4000; k += 2) Put(k, 3 * k + 1);
  eng_->FlushMemtable();
  ExpectScans(kStarts);

  // A buffered tombstone run over flushed keys, longer than a 16-entry
  // scan on every shard (400 deletes, at least ~100 per shard): a scan
  // from inside or before it must reach the live keys past it.
  for (uint64_t k = 1000; k < 1800; k += 2) Delete(k);
  // Overwrites and new keys buffered between flushed keys.
  for (uint64_t k = 2000; k < 2100; k += 2) Put(k, 5 * k + 7);
  for (uint64_t k = 2001; k < 2101; k += 4) Put(k, 5 * k + 9);
  ExpectScans(kStarts);
  ExpectScans({1700, 1799, 1800, 2001, 2050, 2101});

  // Writes and scans interleaved inside one batch: each scan sees exactly
  // the writes submitted before it.
  std::vector<Op> batch;
  for (uint64_t k = 1800; k < 1900; k += 2) {
    batch.push_back(Op{OpKind::kDelete, k, 0, 0});
    if (k % 20 == 0) batch.push_back(Op{OpKind::kScan, 990, 0, 16});
  }
  for (uint64_t k = 4000; k < 4040; k += 2) {
    batch.push_back(Op{OpKind::kPut, k, k, 0});
    batch.push_back(Op{OpKind::kScan, 3990, 0, 16});
    batch.push_back(Op{OpKind::kGet, k, 0, 0});
    batch.push_back(Op{OpKind::kScan, k + 1, 0, 1});
  }
  ExpectBatch(batch);
  ExpectScans(kStarts);

  // Everything flushed, the tombstones now in the newest runs.
  eng_->FlushMemtable();
  ExpectScans(kStarts);
}

TEST_P(ScanOracleTest, RandomTraceMatchesOracle) {
  std::mt19937_64 rng(GetParam() == Backend::kFile ? 17 : 23);
  auto key = [&] { return rng() % 3000; };
  for (size_t round = 0; round < 12; ++round) {
    std::vector<Op> batch;
    for (size_t i = 0; i < 250; ++i) {
      const uint64_t k = key();
      switch (rng() % 10) {
        case 0:
        case 1:
          // A contiguous delete run, so tombstone runs build up.
          for (uint64_t d = k; d < k + 40; ++d) {
            batch.push_back(Op{OpKind::kDelete, d, 0, 0});
          }
          break;
        case 2:
          batch.push_back(Op{OpKind::kScan, k, 0, kLengths[rng() % 4]});
          break;
        case 3:
          batch.push_back(Op{OpKind::kGet, k, 0, 0});
          break;
        default:
          batch.push_back(Op{OpKind::kPut, k, rng(), 0});
          break;
      }
    }
    ExpectBatch(batch);
    if (round % 4 == 3) eng_->FlushMemtable();
    for (size_t i = 0; i < 8; ++i) ExpectScan(key(), kLengths[rng() % 4]);
  }
  ExpectScans(kStarts);
}

INSTANTIATE_TEST_SUITE_P(Engines, ScanOracleTest,
                         ::testing::Values(Backend::kOneShard,
                                           Backend::kShardedInline,
                                           Backend::kShardedPool,
                                           Backend::kFile),
                         BackendName);

}  // namespace
}  // namespace camal::engine
