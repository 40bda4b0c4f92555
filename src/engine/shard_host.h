#ifndef CAMAL_ENGINE_SHARD_HOST_H_
#define CAMAL_ENGINE_SHARD_HOST_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/storage_engine.h"
#include "lsm/entry.h"
#include "lsm/options.h"
#include "sim/device.h"

namespace camal::util {
class ThreadPool;
}  // namespace camal::util

namespace camal::engine {

/// Gathers per-shard sorted slices into one globally sorted stream of up
/// to `max_entries` entries via a binary-heap k-way merge: O(total·log k)
/// instead of a linear min-scan's O(total·k). Keys across slices must be
/// pairwise disjoint (hash partitioning guarantees it), so no tie-break
/// is needed and the output order is unique. `ShardHost::Scan` gathers
/// through this.
size_t MergeDisjointSlices(const std::vector<std::vector<lsm::Entry>>& slices,
                           size_t max_entries, std::vector<lsm::Entry>* out);

/// One shard's range probe of a batched scan: the shard's cost clock just
/// before and just after the probe, and the live entries it produced.
struct ScanProbe {
  sim::DeviceSnapshot before;
  sim::DeviceSnapshot after;
  size_t hits = 0;
};

/// \brief The storage of one shard behind a `ShardHost`: the narrow
/// surface the host's partitioner, lifecycle and fan-out drive.
///
/// The host owns the lifecycle state and calls each transition (`Open`,
/// `Freeze`, `Thaw`) only from the state it leaves. Operations run only while
/// materialized; `ReconfigureFrozen` and `FrozenHasBufferedWrites` only
/// while hibernated. The views answer while materialized or hibernated,
/// `Cost` also while cold (a store that was created but never opened has
/// charged nothing, or only what its owner charged directly).
///
/// Everything a store touches is its own, so the host runs the stores of
/// different shards concurrently.
class ShardStore {
 public:
  /// Releases the shard's structures (a store dies with its host).
  virtual ~ShardStore() = default;

  /// Cold → materialized: builds the live structures with `options`.
  virtual void Open(const lsm::Options& options) = 0;
  /// Materialized → hibernated: releases the live structures into a
  /// compact frozen form, charging nothing.
  virtual void Freeze() = 0;
  /// Hibernated → materialized: restores exactly the frozen state.
  virtual void Thaw() = 0;

  /// Point write; `tombstone` makes it a delete.
  virtual void Write(uint64_t key, uint64_t value, bool tombstone) = 0;
  /// Point lookup (`value` may be null).
  virtual bool Get(uint64_t key, uint64_t* value) = 0;
  /// Appends up to `max_entries` of this shard's live entries with
  /// key >= `start_key`, in key order; returns how many.
  virtual size_t Scan(uint64_t start_key, size_t max_entries,
                      std::vector<lsm::Entry>* out) = 0;

  /// Runs this shard's ordered sub-batch: `list` holds indices into `ops`
  /// in submission order. A point op writes `results[i]`; the j-th scan of
  /// the list records its probe in `probes[j]` (a scan's result sums the
  /// probes of every shard, so the host gathers it). Called once per list,
  /// so the per-op loop has no virtual call.
  virtual void RunOps(const Op* ops, const std::vector<size_t>& list,
                      OpResult* results, ScanProbe* probes) = 0;

  /// Drains buffered writes to disk (no-op when empty).
  virtual void Flush() = 0;

  /// Applies shard-local options to the live store.
  virtual void Reconfigure(const lsm::Options& options) = 0;

  /// Applies shard-local options while hibernated. Returns false when the
  /// change needs the live store (the host then thaws the store and calls
  /// `Reconfigure`).
  virtual bool ReconfigureFrozen(const lsm::Options& options) = 0;

  /// Whether the hibernated store holds writes a flush would drain.
  virtual bool FrozenHasBufferedWrites() const = 0;

  /// The options the shard runs with.
  virtual lsm::Options CurrentOptions() const = 0;
  /// The shard's cost clock (device or measured).
  virtual sim::DeviceSnapshot Cost() const = 0;
  /// The shard's compaction/flush counters.
  virtual EngineCounters Counters() const = 0;
  /// Live entries, buffered and on disk.
  virtual uint64_t TotalEntries() const = 0;
  /// Entries in on-disk structures.
  virtual uint64_t DiskEntries() const = 0;
  /// Whether the shape still violates the latest options.
  virtual bool InTransition() const = 0;
};

/// \brief The sharding layer of every multi-shard engine, written once:
/// N `ShardStore`s behind a deterministic hash partitioner, with lazy
/// instantiation, idle hibernation, batched fan-out and scatter-gather
/// scans. `ShardedEngine` (simulated trees) and `FileEngine` (real files)
/// are subclasses that only say how to build one shard's store.
///
/// Point operations route to `Mix64(key) % N`. The total memory budget of
/// the system-wide options is divided evenly across shards
/// (`ShardOptions`); `Reconfigure` re-divides a new total, and
/// `ReconfigureShard` retunes one shard independently.
///
/// **Shard lifecycle.** Shards are lazy by default: a cold shard has no
/// store and materializes on the first operation that touches it. With
/// `ShardLifecycleConfig::hibernate_after_batches` set, a materialized
/// shard idle for that many `ExecuteOps` batches freezes and releases its
/// live structures; the next touching operation thaws it. Options applied
/// to a cold shard are kept until it materializes; a hibernated shard
/// takes them in place unless its store needs to wake. Stores make both
/// transitions observationally free, so logical results, per-op costs and
/// `EngineCounters` equal those of an eager engine serving the same stream.
///
/// **Batched path.** `ExecuteOps` partitions each batch into per-shard
/// operation lists in submission order (a scan probe appears in every
/// resident shard's list; scans first wake all hibernated shards, cold
/// shards are skipped since they hold nothing), runs the lists
/// concurrently on `pool()` workers, and merges per-op results back into
/// submission order. A scan's cost is gathered by summing the per-probe
/// before/after clock snapshots in ascending shard order and diffing the
/// totals — the serial-equivalent cost. All bookkeeping is
/// O(ops + resident), never O(total shards).
class ShardHost : public StorageEngine {
 public:
  ShardHost(const ShardHost&) = delete;
  ShardHost& operator=(const ShardHost&) = delete;

  void Put(uint64_t key, uint64_t value) override;
  void Delete(uint64_t key) override;
  bool Get(uint64_t key, uint64_t* value) override;
  size_t Scan(uint64_t start_key, size_t max_entries,
              std::vector<lsm::Entry>* out) override;

  /// Batched execution with concurrent per-shard sub-batches (serial when
  /// no pool is attached). Results are identical for any `pool()` value.
  void ExecuteOps(const Op* ops, size_t count, OpResult* results) override;
  using StorageEngine::ExecuteOps;

  /// Flushes every resident shard; hibernated shards holding buffered
  /// writes wake to flush them, the rest stay asleep.
  void FlushMemtable() override;

  /// Divides `new_total_options`'s memory budget across shards and
  /// applies the slice to every touched shard (as `ReconfigureShard`);
  /// cold shards take it as their materialization target.
  void Reconfigure(const lsm::Options& new_total_options) override;

  /// Applies `options` to one shard as-is (shard-local budget). A cold
  /// shard stays cold and materializes with `options` later (deferred
  /// reconfiguration of an empty shard is observationally identical to
  /// applying it now); a hibernated shard applies it in place or wakes.
  void ReconfigureShard(size_t shard, const lsm::Options& options) override;

  size_t NumShards() const override { return num_shards_; }
  size_t ShardIndex(uint64_t key) const override;

  lsm::Options ShardOptionsSnapshot(size_t shard) const override;

  ShardState ShardLifecycle(size_t shard) const override;
  size_t MaterializedShards() const override { return resident_.size(); }
  void AppendResidentShards(std::vector<size_t>* out) const override;

  sim::DeviceSnapshot CostSnapshot() const override;
  sim::DeviceSnapshot ShardCostSnapshot(size_t shard) const override;
  EngineCounters AggregateCounters() const override;
  EngineCounters ShardCounters(size_t shard) const override;

  uint64_t TotalEntries() const override;
  uint64_t DiskEntries() const override;
  uint64_t ShardEntries(size_t shard) const override;
  bool InTransition() const override;

  /// Attaches (or detaches, with nullptr) the worker pool `ExecuteOps` and
  /// `Scan` fan shard-local work across. Not owned; must outlive its use.
  /// No pool — and any call made from inside a pool worker — runs inline.
  void set_pool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* pool() const { return pool_; }

  /// The per-shard slice of a total configuration: buffer, Bloom, and
  /// block-cache budgets divided by `num_shards` (shape knobs unchanged).
  /// Identity when `num_shards` == 1.
  static lsm::Options ShardOptions(const lsm::Options& total,
                                   size_t num_shards);

 protected:
  /// Every shard starts cold with `ShardOptions(total_options,
  /// num_shards)`. Subclass constructors call `MaterializeIfEager` once
  /// they can build stores.
  ShardHost(size_t num_shards, const lsm::Options& total_options,
            const ShardLifecycleConfig& lifecycle);

  /// Builds the (cold, unopened) store of shard `s`.
  virtual std::unique_ptr<ShardStore> NewStore(size_t s) = 0;

  /// Materializes every shard when the lifecycle is eager.
  void MaterializeIfEager();

  /// Brings shard `s` to the materialized state (open a cold store, thaw
  /// a hibernated one) and returns its store.
  ShardStore* Materialize(size_t s);

  /// Marks shard `s` active this batch and arms its idle timer.
  void Touch(size_t s);

  /// Shard `s`'s store, creating it (cold, unopened) when absent.
  ShardStore* EnsureStore(size_t s);

  /// Shard `s`'s store, or null when none was ever created.
  ShardStore* FindStore(size_t s) const;

  /// Installs a store built outside the lifecycle (crash recovery) in
  /// `state` (materialized or hibernated).
  void AdoptStore(size_t s, std::unique_ptr<ShardStore> store,
                  ShardState state);

  /// Destroys every store now. A subclass whose stores reference it calls
  /// this from its destructor, before its own members go.
  void ReleaseStores();

  /// Ids of every shard with a store, ascending.
  std::vector<size_t> StoreIds() const;

  /// The options shard `s` materializes with while it is cold.
  const lsm::Options& EffectiveOptions(size_t s) const;

  const std::set<size_t>& resident() const { return resident_; }
  const std::set<size_t>& hibernated() const { return hibernated_; }
  const std::map<size_t, lsm::Options>& cold_options() const {
    return cold_options_;
  }
  const lsm::Options& default_options() const { return default_options_; }

 private:
  struct Slot {
    std::unique_ptr<ShardStore> store;
    ShardState state = ShardState::kCold;
    uint64_t last_touch_epoch = ~uint64_t{0};  // sentinel: never touched
  };

  /// The slot of a materialized or hibernated shard, else null.
  const Slot* Live(size_t s) const;

  void Hibernate(size_t s);
  /// Wakes every hibernated shard (scans: their data must be probed).
  void WakeAllHibernated();
  /// Hibernates shards whose idle timers expired.
  void HibernateIdleShards();

  /// Hashed active-shard map: holds an entry only for shards that have a
  /// store, so engine memory is O(active), not O(total) — a million cold
  /// tenants cost nothing but this map's empty buckets.
  std::unordered_map<size_t, Slot> slots_;
  size_t num_shards_ = 0;
  lsm::Options default_options_;
  ShardLifecycleConfig lifecycle_;
  /// Options applied to a shard while cold, pending materialization.
  std::map<size_t, lsm::Options> cold_options_;
  /// Materialized shard ids, ascending (scan probe order).
  std::set<size_t> resident_;
  /// Hibernated shard ids (O(hibernated) wake-all, not O(total)).
  std::set<size_t> hibernated_;
  /// Idle tracking: (shard, touch epoch) entries with lazy deletion; a
  /// shard hibernates when its newest entry expires untouched.
  std::deque<std::pair<size_t, uint64_t>> idle_queue_;
  uint64_t epoch_ = 0;
  util::ThreadPool* pool_ = nullptr;
};

}  // namespace camal::engine

#endif  // CAMAL_ENGINE_SHARD_HOST_H_
