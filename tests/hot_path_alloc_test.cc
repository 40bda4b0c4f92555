// The warm serving path allocates nothing.
//
// This binary replaces the global `operator new` with a counting one. A
// warm 4-shard `ShardedEngine` run inline (no pool) must then serve a
// batch of gets and a batch holding a scan with zero heap allocations: the
// host's partition scratch, the trees' scan cursors and the block cache's
// LRU nodes are all reused. A block-cache miss insert at capacity recycles
// the victim's nodes instead of allocating new ones.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "engine/sharded_engine.h"
#include "lsm/block_cache.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace camal::engine {
namespace {

/// Heap allocations made while `fn` runs.
template <typename Fn>
size_t CountAllocations(const Fn& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

constexpr size_t kShards = 4;
constexpr uint64_t kKeys = 20000;

/// A loaded 4-shard engine whose per-shard block caches are far smaller
/// than its runs, so reads keep missing and inserting at capacity.
class HotPathAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lsm::Options opts;
    opts.entry_bytes = 128;
    opts.buffer_bytes = 128 * 256 * kShards;
    opts.size_ratio = 4.0;
    opts.bloom_bits = 8 * kKeys;
    opts.block_cache_bytes = 8 * 4096 * kShards;  // 8 blocks per shard
    eng_ = std::make_unique<ShardedEngine>(kShards, opts, sim::DeviceConfig{});
    for (uint64_t k = 0; k < kKeys; ++k) eng_->Put(k * 2, k);
    for (uint64_t k = 0; k < 100; ++k) eng_->Put(k * 2 + 1, k);  // buffered
    Run(Gets(0, 1000, 40));  // reads across every run fill the caches
  }

  /// Runs `ops` until every structure it touches has grown to size.
  void Warm(const std::vector<Op>& ops) {
    for (int round = 0; round < 3; ++round) Run(ops);
  }

  void Run(const std::vector<Op>& ops) {
    results_.resize(ops.size());
    eng_->ExecuteOps(ops.data(), ops.size(), results_.data());
  }

  /// Whether every shard's block cache is full.
  bool CachesFull() {
    for (size_t s = 0; s < kShards; ++s) {
      const lsm::BlockCache* cache = eng_->shard(s)->cache();
      if (cache->size() != cache->capacity_blocks()) return false;
    }
    return true;
  }

  static std::vector<Op> Gets(uint64_t first, size_t n, uint64_t stride) {
    std::vector<Op> ops(n);
    for (size_t i = 0; i < n; ++i) {
      ops[i].kind = OpKind::kGet;
      ops[i].key = first + i * stride;
    }
    return ops;
  }

  std::unique_ptr<ShardedEngine> eng_;
  std::vector<OpResult> results_;
};

TEST_F(HotPathAllocTest, WarmGetBatchAllocatesNothing) {
  const std::vector<Op> warm = Gets(0, 64, 2);
  Warm(warm);
  ASSERT_TRUE(CachesFull());
  // Fresh keys: the batch reads blocks the caches do not hold, so every
  // shard misses and inserts at capacity.
  const std::vector<Op> cold = Gets(10000, 64, 460);
  const uint64_t misses_before = eng_->shard(0)->cache()->misses();
  EXPECT_EQ(CountAllocations([&] { Run(cold); }), 0u);
  EXPECT_GT(eng_->shard(0)->cache()->misses(), misses_before);
}

TEST_F(HotPathAllocTest, WarmScanBatchAllocatesNothing) {
  std::vector<Op> ops = Gets(10, 8, 1000);
  Op scan;
  scan.kind = OpKind::kScan;
  scan.key = 500;
  scan.scan_len = 64;
  ops.insert(ops.begin() + 3, scan);
  scan.key = 30000;
  scan.scan_len = 16;
  ops.push_back(scan);
  Warm(ops);
  ASSERT_TRUE(CachesFull());
  EXPECT_EQ(CountAllocations([&] { Run(ops); }), 0u);
  EXPECT_EQ(results_[3].scan_hits, 64u);
}

TEST(BlockCacheAllocTest, MissInsertAtCapacityAllocatesNothing) {
  lsm::BlockCache cache(8);
  for (uint64_t k = 0; k < 8; ++k) cache.Insert(k);
  EXPECT_EQ(CountAllocations([&] {
              for (uint64_t k = 8; k < 64; ++k) {
                if (!cache.Lookup(k)) cache.Insert(k);
              }
            }),
            0u);
  EXPECT_EQ(cache.size(), 8u);

  using Bytes = std::shared_ptr<const std::vector<char>>;
  lsm::BasicBlockCache<Bytes> payload(2);
  std::vector<Bytes> blocks;
  for (int i = 0; i < 4; ++i) {
    blocks.push_back(std::make_shared<const std::vector<char>>(8, 'x'));
  }
  payload.Insert(0, blocks[0]);
  payload.Insert(1, blocks[1]);
  EXPECT_EQ(CountAllocations([&] {
              payload.Insert(2, blocks[2]);
              payload.Insert(3, blocks[3]);
            }),
            0u);
}

}  // namespace
}  // namespace camal::engine
