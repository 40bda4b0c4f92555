#include "engine/shard_host.h"

#include <algorithm>

#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace camal::engine {

size_t MergeDisjointSlices(const std::vector<std::vector<lsm::Entry>>& slices,
                           size_t max_entries, std::vector<lsm::Entry>* out) {
  // Min-heap of (head key, slice index); each pop advances one slice
  // cursor and may re-push that slice's next head.
  struct Head {
    uint64_t key;
    size_t slice;
  };
  const auto greater = [](const Head& a, const Head& b) {
    return a.key > b.key;
  };
  std::vector<Head> heap;
  heap.reserve(slices.size());
  std::vector<size_t> idx(slices.size(), 0);
  for (size_t s = 0; s < slices.size(); ++s) {
    if (!slices[s].empty()) heap.push_back(Head{slices[s][0].key, s});
  }
  std::make_heap(heap.begin(), heap.end(), greater);

  size_t added = 0;
  while (added < max_entries && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const size_t s = heap.back().slice;
    heap.pop_back();
    out->push_back(slices[s][idx[s]++]);
    ++added;
    if (idx[s] < slices[s].size()) {
      heap.push_back(Head{slices[s][idx[s]].key, s});
      std::push_heap(heap.begin(), heap.end(), greater);
    }
  }
  return added;
}

ShardHost::ShardHost(size_t num_shards, const lsm::Options& total_options,
                     const ShardLifecycleConfig& lifecycle)
    : num_shards_(num_shards),
      default_options_(ShardOptions(total_options, num_shards)),
      lifecycle_(lifecycle) {
  CAMAL_CHECK(default_options_.Validate().ok());
}

lsm::Options ShardHost::ShardOptions(const lsm::Options& total,
                                     size_t num_shards) {
  CAMAL_CHECK(num_shards >= 1);
  if (num_shards == 1) return total;
  lsm::Options per_shard = total;
  const auto n = static_cast<uint64_t>(num_shards);
  per_shard.buffer_bytes =
      std::max<uint64_t>(total.entry_bytes, total.buffer_bytes / n);
  per_shard.bloom_bits = total.bloom_bits / n;
  per_shard.block_cache_bytes = total.block_cache_bytes / n;
  return per_shard;
}

size_t ShardHost::ShardIndex(uint64_t key) const {
  if (num_shards_ == 1) return 0;
  return static_cast<size_t>(util::Mix64(key) % num_shards_);
}

void ShardHost::MaterializeIfEager() {
  if (lifecycle_.lazy) return;
  for (size_t s = 0; s < num_shards_; ++s) Materialize(s);
}

const lsm::Options& ShardHost::EffectiveOptions(size_t s) const {
  const auto it = cold_options_.find(s);
  return it != cold_options_.end() ? it->second : default_options_;
}

ShardStore* ShardHost::EnsureStore(size_t s) {
  CAMAL_CHECK(s < num_shards_);
  Slot& slot = slots_[s];
  if (slot.store == nullptr) slot.store = NewStore(s);
  return slot.store.get();
}

ShardStore* ShardHost::FindStore(size_t s) const {
  const auto it = slots_.find(s);
  return it == slots_.end() ? nullptr : it->second.store.get();
}

const ShardHost::Slot* ShardHost::Live(size_t s) const {
  CAMAL_CHECK(s < num_shards_);
  const auto it = slots_.find(s);
  if (it == slots_.end() || it->second.state == ShardState::kCold) {
    return nullptr;
  }
  return &it->second;
}

ShardStore* ShardHost::Materialize(size_t s) {
  CAMAL_CHECK(s < num_shards_);
  Slot& slot = slots_[s];
  if (slot.state == ShardState::kMaterialized) return slot.store.get();
  if (slot.store == nullptr) slot.store = NewStore(s);
  ShardStore* store = slot.store.get();
  if (slot.state == ShardState::kHibernated) {
    store->Thaw();
    hibernated_.erase(s);
  } else {
    const auto it = cold_options_.find(s);
    store->Open(it != cold_options_.end() ? it->second : default_options_);
    if (it != cold_options_.end()) cold_options_.erase(it);
  }
  slot.state = ShardState::kMaterialized;
  resident_.insert(s);
  return store;
}

void ShardHost::AdoptStore(size_t s, std::unique_ptr<ShardStore> store,
                           ShardState state) {
  CAMAL_CHECK(s < num_shards_ && state != ShardState::kCold);
  Slot& slot = slots_[s];
  CAMAL_CHECK(slot.store == nullptr);
  slot.store = std::move(store);
  slot.state = state;
  (state == ShardState::kHibernated ? hibernated_ : resident_).insert(s);
}

void ShardHost::ReleaseStores() {
  slots_.clear();
  resident_.clear();
  hibernated_.clear();
}

std::vector<size_t> ShardHost::StoreIds() const {
  std::vector<size_t> ids;
  ids.reserve(slots_.size());
  for (const auto& [s, slot] : slots_) {
    if (slot.store != nullptr) ids.push_back(s);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ShardHost::Hibernate(size_t s) {
  Slot& slot = slots_.at(s);
  CAMAL_CHECK(slot.state == ShardState::kMaterialized);
  slot.store->Freeze();
  slot.state = ShardState::kHibernated;
  resident_.erase(s);
  hibernated_.insert(s);
}

void ShardHost::WakeAllHibernated() {
  while (!hibernated_.empty()) Materialize(*hibernated_.begin());
}

void ShardHost::Touch(size_t s) {
  if (lifecycle_.hibernate_after_batches == 0) return;
  Slot& slot = slots_.at(s);
  if (slot.last_touch_epoch == epoch_) return;
  slot.last_touch_epoch = epoch_;
  idle_queue_.emplace_back(s, epoch_);
}

void ShardHost::HibernateIdleShards() {
  const uint64_t window = lifecycle_.hibernate_after_batches;
  while (!idle_queue_.empty() &&
         idle_queue_.front().second + window <= epoch_) {
    const auto [s, touched] = idle_queue_.front();
    idle_queue_.pop_front();
    // Lazy deletion: only the newest timer for a still-resident shard
    // hibernates it; stale entries (shard re-touched or already asleep)
    // fall through.
    const auto it = slots_.find(s);
    if (it != slots_.end() && it->second.state == ShardState::kMaterialized &&
        it->second.last_touch_epoch == touched) {
      Hibernate(s);
    }
  }
}

void ShardHost::Put(uint64_t key, uint64_t value) {
  const size_t s = ShardIndex(key);
  ShardStore* store = Materialize(s);
  Touch(s);
  store->Write(key, value, /*tombstone=*/false);
}

void ShardHost::Delete(uint64_t key) {
  const size_t s = ShardIndex(key);
  ShardStore* store = Materialize(s);
  Touch(s);
  store->Write(key, 0, /*tombstone=*/true);
}

bool ShardHost::Get(uint64_t key, uint64_t* value) {
  const size_t s = ShardIndex(key);
  ShardStore* store = Materialize(s);
  Touch(s);
  return store->Get(key, value);
}

size_t ShardHost::Scan(uint64_t start_key, size_t max_entries,
                       std::vector<lsm::Entry>* out) {
  if (num_shards_ == 1) {
    ShardStore* store = Materialize(0);
    Touch(0);
    return store->Scan(start_key, max_entries, out);
  }
  if (max_entries == 0) return 0;

  // Scans consult every shard that holds data: hibernated shards wake,
  // cold shards are skipped (an empty shard contributes nothing and
  // charges nothing).
  WakeAllHibernated();
  const std::vector<size_t> probed(resident_.begin(), resident_.end());
  std::vector<ShardStore*> stores(probed.size());
  for (size_t k = 0; k < probed.size(); ++k) {
    Touch(probed[k]);
    stores[k] = slots_.at(probed[k]).store.get();
  }

  // Scatter: each resident shard contributes up to max_entries of its own
  // sorted, live entries (keys are hash-partitioned, so shard slices are
  // disjoint). Each probe touches only its own store, so the fan-out is
  // deterministic; workers never touch the slot map.
  std::vector<std::vector<lsm::Entry>> slices(probed.size());
  util::ParallelFor(pool_, 0, probed.size(), [&](size_t k) {
    stores[k]->Scan(start_key, max_entries, &slices[k]);
  });

  // Gather: binary-heap k-way merge of the disjoint sorted slices.
  return MergeDisjointSlices(slices, max_entries, out);
}

void ShardHost::ExecuteOps(const Op* ops, size_t count, OpResult* results) {
  if (count == 0) return;
  ++epoch_;

  // Pass 1: bring every shard this batch drives to the materialized state.
  // Scans additionally wake all hibernated shards — their data
  // participates in every range probe — while cold shards stay cold
  // (probing an empty shard returns nothing and charges nothing, so
  // skipping them is identical to the eager engine probing them).
  bool has_scan = false;
  for (size_t i = 0; i < count; ++i) {
    if (ops[i].kind == OpKind::kScan) {
      has_scan = true;
    } else {
      const size_t s = ShardIndex(ops[i].key);
      Materialize(s);
      Touch(s);
    }
  }
  if (has_scan) WakeAllHibernated();

  // Pass 2: partition the batch into per-shard operation lists in
  // submission order: point ops go to their routed shard, a scan probe
  // appears in every resident shard's list. Each list is exactly the op
  // subsequence its shard would serve under serial execution, so running
  // the lists concurrently (shard state is fully shard-local) reproduces
  // the serial results with no barrier inside the batch.
  std::vector<size_t> list_shard;  // list index -> shard id
  std::vector<std::vector<size_t>> lists;
  std::unordered_map<size_t, size_t> list_of;
  if (has_scan) {
    // The probe set is the resident set after pass 1, ascending — every
    // point shard of this batch is already in it, so no list is created
    // below, list_shard stays sorted (the gather relies on it) and every
    // list holds every scan.
    list_shard.assign(resident_.begin(), resident_.end());
    lists.resize(list_shard.size());
    list_of.reserve(2 * list_shard.size());
    for (size_t k = 0; k < list_shard.size(); ++k) {
      list_of.emplace(list_shard[k], k);
      Touch(list_shard[k]);
    }
  }
  std::vector<size_t> scan_op;  // scan j -> op index
  for (size_t i = 0; i < count; ++i) {
    if (ops[i].kind == OpKind::kScan) {
      scan_op.push_back(i);
      for (auto& list : lists) list.push_back(i);
    } else {
      const size_t s = ShardIndex(ops[i].key);
      const auto [it, inserted] = list_of.try_emplace(s, lists.size());
      if (inserted) {
        lists.emplace_back();
        list_shard.push_back(s);
      }
      lists[it->second].push_back(i);
    }
  }

  // List k records its j-th scan probe at probes[k * num_scans + j], so
  // concurrent lists write disjoint elements. Stores are resolved before
  // the fan-out: workers must never touch the slot map.
  const size_t num_scans = scan_op.size();
  std::vector<ScanProbe> probes(num_scans * lists.size());
  std::vector<ShardStore*> stores(lists.size());
  for (size_t k = 0; k < lists.size(); ++k) {
    stores[k] = slots_.at(list_shard[k]).store.get();
  }
  util::ParallelFor(pool_, 0, lists.size(), [&](size_t k) {
    stores[k]->RunOps(ops, lists[k], results, probes.data() + k * num_scans);
  });

  // Deterministic gather for the scans: sum the per-shard snapshots in
  // ascending shard order, diff the totals (the serial-equivalent cost;
  // absent cold shards would have contributed exact zeros), and cap the
  // combined hit count at the probe limit.
  for (size_t j = 0; j < num_scans; ++j) {
    sim::DeviceSnapshot total_before, total_after;
    size_t hits = 0;
    for (size_t k = 0; k < lists.size(); ++k) {
      const ScanProbe& probe = probes[k * num_scans + j];
      total_before += probe.before;
      total_after += probe.after;
      hits += probe.hits;
    }
    const sim::DeviceSnapshot delta = total_after.Delta(total_before);
    const size_t i = scan_op[j];
    OpResult r;
    r.latency_ns = delta.elapsed_ns;
    r.ios = delta.TotalIos();
    r.scan_hits = std::min(ops[i].scan_len, hits);
    results[i] = r;
  }

  if (lifecycle_.hibernate_after_batches != 0) HibernateIdleShards();
  ProfileBatch(ops, count, results);
}

void ShardHost::FlushMemtable() {
  // Cold shards are empty by construction; hibernated ones without
  // buffered writes would flush nothing.
  std::vector<size_t> wake;
  for (size_t s : hibernated_) {
    if (slots_.at(s).store->FrozenHasBufferedWrites()) wake.push_back(s);
  }
  for (size_t s : wake) {
    Materialize(s);
    Touch(s);
  }
  for (size_t s : resident_) slots_.at(s).store->Flush();
}

void ShardHost::Reconfigure(const lsm::Options& new_total_options) {
  const lsm::Options per_shard = ShardOptions(new_total_options, num_shards_);
  default_options_ = per_shard;
  cold_options_.clear();
  // Ids are gathered first: a hibernated shard may wake to apply the
  // change, which moves it between the lifecycle sets.
  std::vector<size_t> touched(resident_.begin(), resident_.end());
  touched.insert(touched.end(), hibernated_.begin(), hibernated_.end());
  for (size_t s : touched) ReconfigureShard(s, per_shard);
}

void ShardHost::ReconfigureShard(size_t shard, const lsm::Options& options) {
  const Slot* slot = Live(shard);
  if (slot == nullptr) {
    CAMAL_CHECK(options.entry_bytes == EffectiveOptions(shard).entry_bytes);
    cold_options_[shard] = options;
    return;
  }
  if (slot->state == ShardState::kHibernated) {
    if (slot->store->ReconfigureFrozen(options)) return;
    Materialize(shard);
    Touch(shard);
  }
  slot->store->Reconfigure(options);
}

lsm::Options ShardHost::ShardOptionsSnapshot(size_t shard) const {
  const Slot* slot = Live(shard);
  return slot != nullptr ? slot->store->CurrentOptions()
                         : EffectiveOptions(shard);
}

ShardState ShardHost::ShardLifecycle(size_t shard) const {
  const Slot* slot = Live(shard);
  return slot != nullptr ? slot->state : ShardState::kCold;
}

void ShardHost::AppendResidentShards(std::vector<size_t>* out) const {
  out->insert(out->end(), resident_.begin(), resident_.end());
}

sim::DeviceSnapshot ShardHost::CostSnapshot() const {
  // Ascending shard order — the floating-point sum must be reproducible,
  // and the hashed map iterates in no useful order. Shards without a
  // store have charged nothing and contribute the same exact zeros.
  sim::DeviceSnapshot total;
  for (size_t s : StoreIds()) total += slots_.at(s).store->Cost();
  return total;
}

sim::DeviceSnapshot ShardHost::ShardCostSnapshot(size_t shard) const {
  CAMAL_CHECK(shard < num_shards_);
  const ShardStore* store = FindStore(shard);
  return store != nullptr ? store->Cost() : sim::DeviceSnapshot{};
}

EngineCounters ShardHost::AggregateCounters() const {
  // Integer sums are order-free, so the map iterates directly.
  EngineCounters total;
  for (const auto& [s, slot] : slots_) {
    (void)s;
    if (slot.state != ShardState::kCold) total += slot.store->Counters();
  }
  return total;
}

EngineCounters ShardHost::ShardCounters(size_t shard) const {
  const Slot* slot = Live(shard);
  return slot != nullptr ? slot->store->Counters() : EngineCounters{};
}

uint64_t ShardHost::TotalEntries() const {
  uint64_t total = 0;
  for (const auto& [s, slot] : slots_) {
    (void)s;
    if (slot.state != ShardState::kCold) total += slot.store->TotalEntries();
  }
  return total;
}

uint64_t ShardHost::DiskEntries() const {
  uint64_t total = 0;
  for (const auto& [s, slot] : slots_) {
    (void)s;
    if (slot.state != ShardState::kCold) total += slot.store->DiskEntries();
  }
  return total;
}

uint64_t ShardHost::ShardEntries(size_t shard) const {
  const Slot* slot = Live(shard);
  return slot != nullptr ? slot->store->TotalEntries() : 0;
}

bool ShardHost::InTransition() const {
  for (const auto& [s, slot] : slots_) {
    (void)s;
    if (slot.state != ShardState::kCold && slot.store->InTransition()) {
      return true;
    }
  }
  return false;
}

}  // namespace camal::engine
