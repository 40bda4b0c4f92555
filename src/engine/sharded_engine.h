#ifndef CAMAL_ENGINE_SHARDED_ENGINE_H_
#define CAMAL_ENGINE_SHARDED_ENGINE_H_

#include <memory>

#include "engine/shard_host.h"
#include "lsm/lsm_tree.h"
#include "sim/device.h"

namespace camal::engine {

/// N independent `lsm::LsmTree` shards behind a `ShardHost` — the
/// simulated multi-tenant serving engine. Each shard owns its own
/// simulated device and its own options.
///
/// A shard's store is its device plus either a live tree or, while
/// hibernated, the tree's compact snapshot (`lsm::FrozenTreeState`).
/// Freeze and thaw charge nothing and preserve all state bit-exactly:
///   - a cold shard is observationally an empty tree (empty-tree probes
///     charge nothing and contribute exact zeros to scan cost sums);
///   - materialization builds exactly the state eager construction built
///     (shard i's device seed is a pure function of i);
///   - freeze/restore round-trips the complete tree state, cache LRU
///     order and counters included;
///   - a hibernated shard takes `ReconfigureShard` in place, exactly as
///     waking it, reconfiguring the tree and re-freezing would.
/// Because every shard owns its device (including its jitter stream),
/// `ExecuteOps` results are bit-identical to serial execution at any
/// thread count.
///
/// With one shard the engine is bit-identical to driving the tree
/// directly: shard 0 uses the caller's device config verbatim (including
/// its jitter seed), options pass through undivided, and `Scan` forwards
/// without a merge layer.
class ShardedEngine : public ShardHost {
 public:
  /// `total_options` is the system-wide configuration; each shard receives
  /// `ShardOptions(total_options, num_shards)`. Shard 0's device uses
  /// `device_config` verbatim; shard i > 0 derives an independent jitter
  /// stream from it (seed ⊕ i), so distinct shards never share correlated
  /// jitter. `lifecycle` controls lazy instantiation and hibernation; the
  /// default (lazy, no hibernation) is bit-identical to eager
  /// construction.
  ShardedEngine(size_t num_shards, const lsm::Options& total_options,
                const sim::DeviceConfig& device_config,
                const ShardLifecycleConfig& lifecycle = {});

  /// Direct shard access (tests, per-shard inspection). Materializes the
  /// shard (waking it if hibernated) — access implies intent to touch.
  lsm::LsmTree* shard(size_t i);
  /// Shard `i`'s device, created if needed; does not materialize.
  sim::Device* shard_device(size_t i);

 protected:
  std::unique_ptr<ShardStore> NewStore(size_t s) override;

 private:
  sim::DeviceConfig device_config_;
};

}  // namespace camal::engine

#endif  // CAMAL_ENGINE_SHARDED_ENGINE_H_
