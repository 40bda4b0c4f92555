#ifndef CAMAL_LSM_BLOCK_CACHE_H_
#define CAMAL_LSM_BLOCK_CACHE_H_

#include <cstdint>
#include <iterator>
#include <list>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace camal::lsm {

/// Payload type of a cache that tracks block residency only.
struct NoPayload {};

/// LRU block cache keyed by (run id, block index), optionally carrying a
/// per-block payload.
///
/// The simulated tree uses it without a payload (`BlockCache`): a hit only
/// skips a charged read, and its nodes hold nothing but the key. The real-IO
/// backend carries the block bytes, since a hit must serve them.
///
/// Only caches read-path block accesses; compaction I/O bypasses the cache,
/// matching the paper's direct-I/O RocksDB setup where compactions do not
/// pollute the block cache.
template <typename Payload = NoPayload>
class BasicBlockCache {
  static constexpr bool kHasPayload = !std::is_same_v<Payload, NoPayload>;
  using Node =
      std::conditional_t<kHasPayload, std::pair<uint64_t, Payload>, uint64_t>;

 public:
  /// `capacity_blocks` = Mc / block size; 0 disables caching.
  explicit BasicBlockCache(uint64_t capacity_blocks = 0)
      : capacity_(capacity_blocks) {}

  BasicBlockCache(const BasicBlockCache&) = delete;
  BasicBlockCache& operator=(const BasicBlockCache&) = delete;

  /// Composes a cache key from a run id and a block index within the run.
  static uint64_t MakeKey(uint64_t run_id, uint64_t block_idx) {
    return (run_id << kBlockBits) | (block_idx & kBlockMask);
  }

  /// Splits a cache key back into (run id, block index).
  static std::pair<uint64_t, uint64_t> SplitKey(uint64_t key) {
    return {key >> kBlockBits, key & kBlockMask};
  }

  /// Returns true on hit (and promotes the block to most-recently-used).
  bool Lookup(uint64_t key) { return Touch(key) != nullptr; }

  /// Lookup that also returns the hit's payload (nullptr on a miss).
  /// Payload caches only.
  const Payload* Find(uint64_t key) {
    const Node* node = Touch(key);
    return node == nullptr ? nullptr : &node->second;
  }

  /// The payload of a resident block without promoting it or counting a
  /// hit/miss (nullptr when absent). Payload caches only.
  const Payload* Peek(uint64_t key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second->second;
  }

  /// Inserts a block as most-recently-used, evicting the least-recently-used
  /// block if full. An already resident key is promoted and its payload
  /// replaced.
  ///
  /// On a full cache the victim's nodes are recycled rather than freed and
  /// reallocated: its list node moves to the front and takes the new key
  /// and payload (the old payload is released), and its hash node is
  /// re-keyed through a node handle. The outcome — MRU order, residency,
  /// counters — is the same as inserting and then evicting, with no heap
  /// allocation.
  void Insert(uint64_t key, Payload payload = Payload()) {
    if (capacity_ == 0) return;
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      if constexpr (kHasPayload) it->second->second = std::move(payload);
      return;
    }
    if (map_.size() == capacity_) {
      auto hash_node = map_.extract(KeyOf(lru_.back()));
      lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
      if constexpr (kHasPayload) {
        lru_.front().first = key;
        lru_.front().second = std::move(payload);
      } else {
        lru_.front() = key;
      }
      hash_node.key() = key;  // still maps to the (moved) list node
      map_.insert(std::move(hash_node));
      return;
    }
    if constexpr (kHasPayload) {
      lru_.emplace_front(key, std::move(payload));
    } else {
      lru_.push_front(key);
    }
    map_[key] = lru_.begin();
  }

  /// Changes capacity; evicts immediately if shrinking.
  void Resize(uint64_t capacity_blocks) {
    capacity_ = capacity_blocks;
    EvictToCapacity();
  }

  /// Drops every cached block (e.g. when the underlying run is deleted the
  /// blocks become dead weight; we conservatively keep them, but tests use
  /// Clear()).
  void Clear() {
    lru_.clear();
    map_.clear();
  }

  uint64_t capacity_blocks() const { return capacity_; }
  uint64_t size() const { return map_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  /// Resident keys, most-recently-used first.
  std::vector<uint64_t> KeysMruToLru() const {
    std::vector<uint64_t> keys;
    keys.reserve(lru_.size());
    for (const Node& node : lru_) keys.push_back(KeyOf(node));
    return keys;
  }

  /// Complete cache state in a compact form: capacity, the resident keys
  /// in MRU-to-LRU order, and the hit/miss counters. Restoring it
  /// reproduces every future lookup/insert/eviction decision exactly.
  struct FrozenState {
    uint64_t capacity = 0;
    std::vector<uint64_t> keys_mru_to_lru;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  /// Exports the current state and clears the cache (shard hibernation).
  FrozenState Freeze() {
    FrozenState state{capacity_, KeysMruToLru(), hits_, misses_};
    Clear();
    return state;
  }

  /// Replaces the current state with `state` (shard wake-up). Payloads
  /// restore default-constructed.
  void Restore(const FrozenState& state) {
    Clear();
    capacity_ = state.capacity;
    hits_ = state.hits;
    misses_ = state.misses;
    // Least recent first, so each insert lands at the front in order.
    const std::vector<uint64_t>& keys = state.keys_mru_to_lru;
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) Insert(*it);
  }

 private:
  static constexpr int kBlockBits = 22;
  static constexpr uint64_t kBlockMask = (1ULL << kBlockBits) - 1;

  static uint64_t KeyOf(const Node& node) {
    if constexpr (kHasPayload) {
      return node.first;
    } else {
      return node;
    }
  }

  /// Counts a hit or miss; a hit is promoted to most-recently-used.
  const Node* Touch(uint64_t key) {
    if (capacity_ == 0) {
      ++misses_;
      return nullptr;
    }
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    return &*it->second;
  }

  void EvictToCapacity() {
    while (map_.size() > capacity_) {
      map_.erase(KeyOf(lru_.back()));
      lru_.pop_back();
    }
  }

  uint64_t capacity_;
  std::list<Node> lru_;  // front = most recently used
  std::unordered_map<uint64_t, typename std::list<Node>::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// The simulated tree's cache: residency only.
using BlockCache = BasicBlockCache<>;

}  // namespace camal::lsm

#endif  // CAMAL_LSM_BLOCK_CACHE_H_
