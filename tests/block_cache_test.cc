#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <vector>

#include "lsm/block_cache.h"
#include "util/random.h"

namespace camal::lsm {
namespace {

TEST(BlockCacheTest, MissThenHit) {
  BlockCache cache(4);
  EXPECT_FALSE(cache.Lookup(1));
  cache.Insert(1);
  EXPECT_TRUE(cache.Lookup(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  BlockCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  EXPECT_TRUE(cache.Lookup(1));  // promote 1; LRU is now 2
  cache.Insert(3);               // evicts 2
  EXPECT_TRUE(cache.Lookup(1));
  EXPECT_FALSE(cache.Lookup(2));
  EXPECT_TRUE(cache.Lookup(3));
}

TEST(BlockCacheTest, ZeroCapacityNeverCaches) {
  BlockCache cache(0);
  cache.Insert(1);
  EXPECT_FALSE(cache.Lookup(1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(BlockCacheTest, ReinsertPromotes) {
  BlockCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  cache.Insert(1);  // promote, not duplicate
  EXPECT_EQ(cache.size(), 2u);
  cache.Insert(3);  // evicts 2
  EXPECT_FALSE(cache.Lookup(2));
  EXPECT_TRUE(cache.Lookup(1));
}

TEST(BlockCacheTest, ResizeShrinkEvicts) {
  BlockCache cache(4);
  for (uint64_t k = 1; k <= 4; ++k) cache.Insert(k);
  cache.Resize(2);
  EXPECT_EQ(cache.size(), 2u);
  // The two most recently used (3, 4) survive.
  EXPECT_TRUE(cache.Lookup(4));
  EXPECT_TRUE(cache.Lookup(3));
  EXPECT_FALSE(cache.Lookup(1));
}

TEST(BlockCacheTest, ResizeGrowKeepsContents) {
  BlockCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  cache.Resize(8);
  EXPECT_TRUE(cache.Lookup(1));
  EXPECT_TRUE(cache.Lookup(2));
}

TEST(BlockCacheTest, ClearEmpties) {
  BlockCache cache(4);
  cache.Insert(1);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(1));
}

TEST(BlockCacheTest, MakeKeyDistinguishesRunsAndBlocks) {
  EXPECT_NE(BlockCache::MakeKey(1, 0), BlockCache::MakeKey(2, 0));
  EXPECT_NE(BlockCache::MakeKey(1, 0), BlockCache::MakeKey(1, 1));
}

using Bytes = std::shared_ptr<const std::vector<char>>;
using PayloadCache = BasicBlockCache<Bytes>;

Bytes MakeBytes(uint64_t tag) {
  return std::make_shared<const std::vector<char>>(8, static_cast<char>(tag));
}

TEST(BlockCacheTest, PayloadAndResidencyCachesDecideIdentically) {
  // One seeded Lookup/Insert/Resize sequence through both flavors: the
  // payload never influences a hit, a miss, or an eviction.
  BlockCache plain(8);
  PayloadCache payload(8);
  util::Random rng(20241018);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = rng.Uniform(40);
    const uint64_t action = rng.Uniform(100);
    if (action < 60) {
      const bool hit = plain.Lookup(key);
      ASSERT_EQ(hit, payload.Find(key) != nullptr) << "step " << step;
      if (!hit) {
        plain.Insert(key);
        payload.Insert(key, MakeBytes(key));
      }
    } else if (action < 95) {
      plain.Insert(key);
      payload.Insert(key, MakeBytes(key));
    } else {
      const uint64_t capacity = rng.Uniform(12);
      plain.Resize(capacity);
      payload.Resize(capacity);
    }
    ASSERT_EQ(plain.KeysMruToLru(), payload.KeysMruToLru()) << "step " << step;
  }
  EXPECT_EQ(plain.hits(), payload.hits());
  EXPECT_EQ(plain.misses(), payload.misses());
  EXPECT_GT(plain.hits(), 0u);
  EXPECT_GT(plain.misses(), 0u);
}

TEST(BlockCacheTest, PeekNeverPromotes) {
  PayloadCache cache(2);
  cache.Insert(1, MakeBytes(1));
  cache.Insert(2, MakeBytes(2));
  ASSERT_NE(cache.Peek(1), nullptr);  // 1 stays least recently used
  EXPECT_EQ(cache.Peek(3), nullptr);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);  // peeks are not lookups
  EXPECT_EQ(cache.KeysMruToLru(), (std::vector<uint64_t>{2, 1}));
  cache.Insert(3, MakeBytes(3));  // evicts 1, not 2
  EXPECT_EQ(cache.Peek(1), nullptr);
  EXPECT_NE(cache.Peek(2), nullptr);
}

TEST(BlockCacheTest, HitReturnsTheInsertedBufferWithoutCopy) {
  PayloadCache cache(4);
  const Bytes block = MakeBytes(7);
  cache.Insert(7, block);
  const Bytes* hit = cache.Find(7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->get(), block.get());
  EXPECT_EQ(cache.Peek(7)->get(), block.get());
  EXPECT_EQ(cache.Find(8), nullptr);
}

TEST(BlockCacheTest, ReinsertReplacesPayloadAndPromotes) {
  PayloadCache cache(2);
  cache.Insert(1, MakeBytes(1));
  cache.Insert(2, MakeBytes(2));
  const Bytes fresh = MakeBytes(9);
  cache.Insert(1, fresh);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Peek(1)->get(), fresh.get());
  EXPECT_EQ(cache.KeysMruToLru(), (std::vector<uint64_t>{1, 2}));
  cache.Insert(3, MakeBytes(3));  // evicts 2, the least recently used
  EXPECT_EQ(cache.Peek(2), nullptr);
  EXPECT_NE(cache.Peek(1), nullptr);
}

/// The LRU contract written the obvious way: a key list, MRU first,
/// searched linearly; insert pushes to the front and trims the back.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint64_t capacity) : capacity_(capacity) {}

  bool Lookup(uint64_t key) {
    const auto it = std::find(keys_.begin(), keys_.end(), key);
    if (capacity_ == 0 || it == keys_.end()) {
      ++misses_;
      return false;
    }
    keys_.splice(keys_.begin(), keys_, it);
    ++hits_;
    return true;
  }
  void Insert(uint64_t key) {
    if (capacity_ == 0) return;
    const auto it = std::find(keys_.begin(), keys_.end(), key);
    if (it != keys_.end()) {
      keys_.splice(keys_.begin(), keys_, it);
      return;
    }
    keys_.push_front(key);
    Trim();
  }
  void Resize(uint64_t capacity) {
    capacity_ = capacity;
    Trim();
  }
  std::vector<uint64_t> Keys() const { return {keys_.begin(), keys_.end()}; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  void Trim() {
    while (keys_.size() > capacity_) keys_.pop_back();
  }

  uint64_t capacity_;
  std::list<uint64_t> keys_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

TEST(BlockCacheTest, RecyclingInsertMatchesReferenceModel) {
  // A seeded trace that mostly runs at capacity (so inserts recycle the
  // victim), with capacity-1 stretches, re-inserts of resident keys into a
  // full cache, shrinks followed by inserts, and freeze/restore round
  // trips. Every step must leave the same keys in the same MRU order.
  BlockCache cache(6);
  PayloadCache payload(6);
  ReferenceLru ref(6);
  util::Random rng(20261022);
  for (int step = 0; step < 30000; ++step) {
    const uint64_t key = rng.Uniform(24);
    const uint64_t action = rng.Uniform(1000);
    if (action < 550) {
      const bool hit = ref.Lookup(key);
      ASSERT_EQ(cache.Lookup(key), hit) << "step " << step;
      ASSERT_EQ(payload.Find(key) != nullptr, hit) << "step " << step;
      if (!hit) {
        ref.Insert(key);
        cache.Insert(key);
        payload.Insert(key, MakeBytes(key));
      }
    } else if (action < 950) {
      // Blind inserts: resident keys promote, absent ones evict at
      // capacity.
      ref.Insert(key);
      cache.Insert(key);
      payload.Insert(key, MakeBytes(key));
    } else if (action < 985) {
      // Shrinks (often to 1 or 0) as well as grows; the inserts that
      // follow refill the cache to its new capacity.
      const uint64_t capacity = rng.Uniform(4) == 0 ? 1 : rng.Uniform(9);
      ref.Resize(capacity);
      cache.Resize(capacity);
      payload.Resize(capacity);
    } else {
      const BlockCache::FrozenState frozen = cache.Freeze();
      ASSERT_EQ(cache.size(), 0u);
      cache.Restore(frozen);
      ASSERT_EQ(cache.capacity_blocks(), frozen.capacity);
    }
    ASSERT_EQ(cache.KeysMruToLru(), ref.Keys()) << "step " << step;
    ASSERT_EQ(payload.KeysMruToLru(), ref.Keys()) << "step " << step;
    ASSERT_EQ(cache.hits(), ref.hits());
    ASSERT_EQ(cache.misses(), ref.misses());
    for (const uint64_t k : ref.Keys()) {
      ASSERT_EQ(**payload.Peek(k), *MakeBytes(k)) << "step " << step;
    }
  }
  EXPECT_GT(ref.hits(), 0u);
  EXPECT_GT(ref.misses(), 0u);
}

TEST(BlockCacheTest, CapacityOneRecyclesItsOnlyNode) {
  BlockCache cache(1);
  cache.Insert(1);
  cache.Insert(2);  // the only node is both victim and newcomer
  EXPECT_EQ(cache.KeysMruToLru(), (std::vector<uint64_t>{2}));
  EXPECT_FALSE(cache.Lookup(1));
  EXPECT_TRUE(cache.Lookup(2));
  cache.Insert(2);  // resident re-insert: nothing is evicted
  EXPECT_EQ(cache.KeysMruToLru(), (std::vector<uint64_t>{2}));
}

TEST(BlockCacheTest, FullCacheReinsertOfResidentKeyEvictsNothing) {
  BlockCache cache(3);
  for (uint64_t k = 1; k <= 3; ++k) cache.Insert(k);
  cache.Insert(1);  // full, but resident: promote only
  EXPECT_EQ(cache.KeysMruToLru(), (std::vector<uint64_t>{1, 3, 2}));
  cache.Insert(4);  // evicts 2, the least recently used
  EXPECT_EQ(cache.KeysMruToLru(), (std::vector<uint64_t>{4, 1, 3}));
}

TEST(BlockCacheTest, RecycledNodeTakesNewPayloadAndReleasesOld) {
  PayloadCache cache(2);
  Bytes first = MakeBytes(1);
  cache.Insert(1, first);
  cache.Insert(2, MakeBytes(2));
  EXPECT_EQ(first.use_count(), 2);  // ours and the cache's
  const Bytes fresh = MakeBytes(3);
  cache.Insert(3, fresh);  // recycles key 1's nodes
  EXPECT_EQ(first.use_count(), 1) << "the victim's bytes are released";
  EXPECT_EQ(fresh.use_count(), 2);
  EXPECT_EQ(cache.Peek(1), nullptr);
  ASSERT_NE(cache.Peek(3), nullptr);
  EXPECT_EQ(cache.Peek(3)->get(), fresh.get());
  EXPECT_EQ(cache.KeysMruToLru(), (std::vector<uint64_t>{3, 2}));
}

TEST(BlockCacheTest, SplitKeyInvertsMakeKey) {
  const auto [run, block] = BlockCache::SplitKey(BlockCache::MakeKey(77, 1234));
  EXPECT_EQ(run, 77u);
  EXPECT_EQ(block, 1234u);
}

}  // namespace
}  // namespace camal::lsm
