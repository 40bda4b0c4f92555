#include "engine/sharded_engine.h"

#include <utility>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace camal::engine {

/// One simulated shard: its device (which survives hibernation — its
/// jitter stream is mid-sequence) and either the live tree or its frozen
/// snapshot.
class SimShardStore final : public ShardStore {
 public:
  explicit SimShardStore(const sim::DeviceConfig& config) : device_(config) {}

  lsm::LsmTree* tree() { return tree_.get(); }
  sim::Device* device() { return &device_; }

  void Open(const lsm::Options& options) override {
    tree_ = std::make_unique<lsm::LsmTree>(options, &device_);
  }
  void Freeze() override {
    frozen_ = tree_->Freeze();
    tree_.reset();
  }
  void Thaw() override {
    tree_ = std::make_unique<lsm::LsmTree>(std::move(*frozen_), &device_);
    frozen_.reset();
  }

  void Write(uint64_t key, uint64_t value, bool tombstone) override {
    if (tombstone) {
      tree_->Delete(key);
    } else {
      tree_->Put(key, value);
    }
  }
  bool Get(uint64_t key, uint64_t* value) override {
    return tree_->Get(key, value);
  }
  size_t Scan(uint64_t start_key, size_t max_entries,
              std::vector<lsm::Entry>* out) override {
    return tree_->Scan(start_key, max_entries, out);
  }

  void RunOps(const Op* ops, const size_t* list, size_t n, OpResult* results,
              ScanProbe* probes) override {
    lsm::LsmTree* tree = tree_.get();
    for (const size_t* it = list; it != list + n; ++it) {
      const size_t i = *it;
      const Op& op = ops[i];
      if (op.kind == OpKind::kScan) {
        // A batched scan reports only its hit count: the tree counts the
        // entries without copying them.
        probes->before = device_.Snapshot();
        probes->hits = tree->Scan(op.key, op.scan_len, /*out=*/nullptr);
        probes->after = device_.Snapshot();
        ++probes;
        continue;
      }
      OpResult r;
      const sim::DeviceSnapshot before = device_.Snapshot();
      switch (op.kind) {
        case OpKind::kGet: {
          uint64_t value = 0;
          r.found = tree->Get(op.key, &value);
          break;
        }
        case OpKind::kPut:
          tree->Put(op.key, op.value);
          break;
        case OpKind::kDelete:
          tree->Delete(op.key);
          break;
        case OpKind::kScan:
          break;  // handled above
      }
      const sim::DeviceSnapshot delta = device_.Snapshot().Delta(before);
      r.latency_ns = delta.elapsed_ns;
      r.ios = delta.TotalIos();
      results[i] = r;
    }
  }

  void Flush() override { tree_->FlushMemtable(); }
  void Reconfigure(const lsm::Options& options) override {
    tree_->Reconfigure(options);
  }

  /// Always in place: the same observable effect as waking the tree,
  /// calling `LsmTree::Reconfigure` and re-freezing — the cache truncates
  /// from the LRU end, the transition flag is recomputed — but
  /// O(cache keys) instead of a full rehydration.
  bool ReconfigureFrozen(const lsm::Options& options) override {
    CAMAL_CHECK(options.Validate().ok());
    CAMAL_CHECK(options.entry_bytes == frozen_->options.entry_bytes);
    frozen_->options = options;
    const uint64_t capacity =
        options.block_cache_bytes / device_.config().block_bytes;
    frozen_->cache.capacity = capacity;
    if (frozen_->cache.keys_mru_to_lru.size() > capacity) {
      frozen_->cache.keys_mru_to_lru.resize(capacity);
    }
    frozen_->transition_active =
        lsm::AnyLevelViolates(frozen_->levels, options);
    return true;
  }
  bool FrozenHasBufferedWrites() const override {
    return !frozen_->memtable.empty();
  }

  lsm::Options CurrentOptions() const override {
    return tree_ ? tree_->options() : frozen_->options;
  }
  sim::DeviceSnapshot Cost() const override { return device_.Snapshot(); }
  EngineCounters Counters() const override {
    return tree_ ? tree_->counters() : frozen_->counters;
  }
  uint64_t TotalEntries() const override {
    return tree_ ? tree_->TotalEntries() : frozen_->total_entries;
  }
  uint64_t DiskEntries() const override {
    return tree_ ? tree_->DiskEntries() : frozen_->disk_entries;
  }
  bool InTransition() const override {
    return tree_ ? tree_->InTransition() : frozen_->transition_active;
  }

 private:
  sim::Device device_;
  std::unique_ptr<lsm::LsmTree> tree_;            // iff materialized
  std::unique_ptr<lsm::FrozenTreeState> frozen_;  // iff hibernated
};

ShardedEngine::ShardedEngine(size_t num_shards,
                             const lsm::Options& total_options,
                             const sim::DeviceConfig& device_config,
                             const ShardLifecycleConfig& lifecycle)
    : ShardHost(num_shards, total_options, lifecycle),
      device_config_(device_config) {
  MaterializeIfEager();
}

std::unique_ptr<ShardStore> ShardedEngine::NewStore(size_t s) {
  sim::DeviceConfig cfg = device_config_;
  // Shard 0 keeps the caller's jitter stream (1-shard bit-identity with
  // the direct-tree path); later shards derive independent streams. The
  // seed is a pure function of the shard index, so a shard that
  // materializes late gets exactly the device eager construction would
  // have given it.
  if (s > 0) cfg.jitter_seed = util::HashCombine(cfg.jitter_seed, s);
  return std::make_unique<SimShardStore>(cfg);
}

lsm::LsmTree* ShardedEngine::shard(size_t i) {
  auto* store = static_cast<SimShardStore*>(Materialize(i));
  Touch(i);
  return store->tree();
}

sim::Device* ShardedEngine::shard_device(size_t i) {
  return static_cast<SimShardStore*>(EnsureStore(i))->device();
}

}  // namespace camal::engine
