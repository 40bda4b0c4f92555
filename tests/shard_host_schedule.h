// A fixed, seeded batch schedule that drives every path of a sharded
// engine's lifecycle through `StorageEngine` alone: lazy materialization,
// idle hibernation (the engine must be built with
// `hibernate_after_batches = 2`), scans that wake hibernated shards,
// `ReconfigureShard` on a cold and on a hibernated shard, a total
// `Reconfigure` and a `FlushMemtable` mid-stream; and a scan-heavy
// schedule over memtables that buffer long tombstone runs. The fingerprint
// suites run both on the simulated and on the real-IO engine and pin what
// they produce.

#ifndef CAMAL_TESTS_SHARD_HOST_SCHEDULE_H_
#define CAMAL_TESTS_SHARD_HOST_SCHEDULE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/storage_engine.h"
#include "model/workload_spec.h"
#include "workload/generator.h"
#include "workload/request.h"

namespace camal::engine {

/// Order-sensitive digest of a result stream plus plain sums.
struct ScheduleTrace {
  uint64_t result_hash = 0xcbf29ce484222325ULL;  // FNV-1a over every op
  uint64_t count_hash = 0xcbf29ce484222325ULL;   // same, latency left out
  uint64_t entry_hash = 0xcbf29ce484222325ULL;   // entries `Scan` returned
  double latency_sum = 0.0;
  double scan_latency_sum = 0.0;
  uint64_t ios = 0;
  uint64_t found = 0;
  uint64_t scan_hits = 0;
  size_t ops = 0;
  /// `LifecycleString` after each phase, '|'-separated.
  std::string lifecycles;
};

inline void Fnv(uint64_t* h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    *h ^= (v >> (8 * b)) & 0xff;
    *h *= 0x100000001b3ULL;
  }
}

inline void Record(const Op& op, const OpResult& r, ScheduleTrace* t) {
  uint64_t bits = 0;
  std::memcpy(&bits, &r.latency_ns, sizeof(bits));
  for (uint64_t* h : {&t->result_hash, &t->count_hash}) {
    Fnv(h, r.ios);
    Fnv(h, r.found ? 1 : 0);
    Fnv(h, r.scan_hits);
  }
  Fnv(&t->result_hash, bits);
  t->latency_sum += r.latency_ns;
  if (op.kind == OpKind::kScan) t->scan_latency_sum += r.latency_ns;
  t->ios += r.ios;
  t->found += r.found ? 1 : 0;
  t->scan_hits += r.scan_hits;
  ++t->ops;
}

/// Packs every shard's lifecycle state into one string, "c"/"m"/"h" per
/// shard in index order.
inline std::string LifecycleString(const StorageEngine& eng) {
  std::string out;
  for (size_t s = 0; s < eng.NumShards(); ++s) {
    switch (eng.ShardLifecycle(s)) {
      case ShardState::kCold: out += 'c'; break;
      case ShardState::kMaterialized: out += 'm'; break;
      case ShardState::kHibernated: out += 'h'; break;
    }
  }
  return out;
}

/// Runs 40 batches of 40 ops over `eng` (n = NumShards() >= 4) in five
/// phases of 8 batches:
///   A  shards [0, n/2), scans every 4th batch — shards [n/2, n) stay cold;
///   B  shards [n/2, n-1), no scans — phase A's shards hibernate;
///      then ReconfigureShard(n-1) while cold, ReconfigureShard(1) while
///      hibernated (its buffer shrunk to 2 entries);
///   C  every shard, scans every 4th batch;
///      then Reconfigure(total_options with a new ratio and budget);
///   D  shards [0, 2), no scans — the rest hibernate; then FlushMemtable;
///   E  every shard, scans every 4th batch.
inline ScheduleTrace RunShardHostSchedule(StorageEngine* eng,
                                          const lsm::Options& total_options,
                                          uint64_t seed) {
  const size_t n = eng->NumShards();
  EXPECT_GE(n, 4u);
  workload::KeySpace keys(4000, seed);
  workload::GeneratorConfig gen_cfg;
  gen_cfg.scan_len = 12;
  workload::OperationGenerator gen(model::WorkloadSpec{0.1, 0.3, 0.1, 0.5},
                                   &keys, gen_cfg, seed + 1);
  ScheduleTrace trace;
  std::vector<Op> batch;
  std::vector<OpResult> results;

  auto run_phase = [&](size_t lo, size_t hi, bool scans) {
    for (size_t b = 0; b < 8; ++b) {
      const bool scan_batch = scans && b % 4 == 3;
      batch.clear();
      while (batch.size() < 40) {
        const Op op = workload::ToEngineOp(gen.Next());
        if (op.kind == OpKind::kScan) {
          if (scan_batch) batch.push_back(op);
          continue;
        }
        const size_t s = eng->ShardIndex(op.key);
        if (s >= lo && s < hi) batch.push_back(op);
      }
      results.assign(batch.size(), OpResult{});
      eng->ExecuteOps(batch.data(), batch.size(), results.data());
      for (size_t i = 0; i < batch.size(); ++i) {
        Record(batch[i], results[i], &trace);
      }
    }
    trace.lifecycles += LifecycleString(*eng) + "|";
  };

  run_phase(0, n / 2, /*scans=*/true);
  run_phase(n / 2, n - 1, /*scans=*/false);

  EXPECT_EQ(eng->ShardLifecycle(n - 1), ShardState::kCold);
  lsm::Options cold = eng->ShardOptionsSnapshot(n - 1);
  cold.size_ratio = 3.0;
  cold.bloom_bits /= 2;
  eng->ReconfigureShard(n - 1, cold);
  EXPECT_EQ(eng->ShardLifecycle(n - 1), ShardState::kCold);

  EXPECT_EQ(eng->ShardLifecycle(1), ShardState::kHibernated);
  lsm::Options hib = eng->ShardOptionsSnapshot(1);
  hib.buffer_bytes = 2 * hib.entry_bytes;
  hib.block_cache_bytes /= 4;
  eng->ReconfigureShard(1, hib);

  run_phase(0, n, /*scans=*/true);

  lsm::Options total = total_options;
  total.size_ratio = 5.0;
  total.block_cache_bytes /= 2;
  total.bloom_bits *= 2;
  eng->Reconfigure(total);

  run_phase(0, 2, /*scans=*/false);
  eng->FlushMemtable();
  run_phase(0, n, /*scans=*/true);
  return trace;
}

/// The total options both fingerprint suites start the schedule from:
/// a handful of buffered entries per shard so flushes and merges cascade
/// within the 1600-op stream.
inline lsm::Options ScheduleOptions(size_t num_shards) {
  lsm::Options opts;
  opts.entry_bytes = 128;
  opts.buffer_bytes = 128 * 8 * num_shards;
  opts.size_ratio = 4.0;
  opts.bloom_bits = 8 * 4000;
  opts.block_cache_bytes = 8 * 4096 * num_shards;
  return opts;
}

/// Total options of the scan schedule: a 256-entry write buffer per shard,
/// so the tombstones and overwrites it buffers stay in the memtables above
/// the flushed runs while the scans run.
inline lsm::Options ScanScheduleOptions(size_t num_shards) {
  lsm::Options opts = ScheduleOptions(num_shards);
  opts.buffer_bytes = 128 * 256 * num_shards;
  return opts;
}

/// A scan-heavy schedule over `eng` (built with `ScanScheduleOptions`):
///   load   keys [0, 3000), then every third key overwritten, then
///          FlushMemtable — every shard holds only runs;
///   buffer Delete [1000, 1700) and overwrite [2000, 2100) — each shard's
///          memtable holds a run of about 175 tombstones, far longer than
///          a 16-entry scan, above live run keys;
///   scan   three batches of scans of length 1, 16 and 200 from start keys
///          before, inside and past the memtable range and past every key,
///          the middle one interleaved with puts past the key space,
///          deletes and gets; then the same probes as direct `Scan` calls,
///          whose entries enter `entry_hash`.
inline ScheduleTrace RunScanSchedule(StorageEngine* eng) {
  std::vector<Op> batch;
  std::vector<OpResult> results;
  ScheduleTrace trace;
  auto submit = [&](bool record) {
    results.assign(batch.size(), OpResult{});
    eng->ExecuteOps(batch.data(), batch.size(), results.data());
    if (record) {
      for (size_t i = 0; i < batch.size(); ++i) {
        Record(batch[i], results[i], &trace);
      }
    }
    batch.clear();
  };
  auto put = [&](uint64_t key, uint64_t value) {
    batch.push_back(Op{OpKind::kPut, key, value, 0});
  };

  for (uint64_t k = 0; k < 3000; ++k) {
    put(k, 7 * k + 1);
    if (batch.size() == 100) submit(/*record=*/false);
  }
  for (uint64_t k = 0; k < 3000; k += 3) {
    put(k, 11 * k + 2);
    if (batch.size() == 100) submit(/*record=*/false);
  }
  submit(/*record=*/false);
  eng->FlushMemtable();
  for (uint64_t k = 1000; k < 1700; ++k) {
    batch.push_back(Op{OpKind::kDelete, k, 0, 0});
  }
  for (uint64_t k = 2000; k < 2100; ++k) put(k, 13 * k + 3);
  submit(/*record=*/false);

  const uint64_t starts[] = {0,    500,  999,  1000, 1350, 1699, 1700,
                             2000, 2050, 2099, 2100, 2999, 3000, 1ULL << 40};
  auto scans = [&] {
    for (const uint64_t start : starts) {
      for (const size_t len : {size_t{1}, size_t{16}, size_t{200}}) {
        batch.push_back(Op{OpKind::kScan, start, 0, len});
      }
    }
  };
  scans();
  submit(/*record=*/true);
  for (const uint64_t start : starts) {
    put(3000 + start % 97, start);
    batch.push_back(Op{OpKind::kDelete, 1700 + start % 40, 0, 0});
    batch.push_back(Op{OpKind::kGet, start % 3100, 0, 0});
    for (const size_t len : {size_t{1}, size_t{16}, size_t{200}}) {
      batch.push_back(Op{OpKind::kScan, start, 0, len});
    }
  }
  submit(/*record=*/true);
  scans();
  submit(/*record=*/true);
  scans();
  std::vector<lsm::Entry> out;
  for (const Op& op : batch) {
    out.clear();
    eng->Scan(op.key, op.scan_len, &out);
    for (const lsm::Entry& e : out) {
      Fnv(&trace.entry_hash, e.key);
      Fnv(&trace.entry_hash, e.value);
    }
  }
  return trace;
}

}  // namespace camal::engine

#endif  // CAMAL_TESTS_SHARD_HOST_SCHEDULE_H_
