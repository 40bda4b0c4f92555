#include "engine/shard_host.h"

#include <algorithm>

#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace camal::engine {

namespace {

/// `util::ParallelFor` over [0, n). The callable is passed by reference, so
/// the `std::function` it becomes holds one pointer in place: the inline
/// fan-out allocates nothing, however much `fn` captures.
template <typename Fn>
void FanOut(util::ThreadPool* pool, size_t n, const Fn& fn) {
  util::ParallelFor(pool, 0, n, [&fn](size_t k) { fn(k); });
}

}  // namespace

size_t MergeDisjointSlices(const std::vector<std::vector<lsm::Entry>>& slices,
                           size_t max_entries, std::vector<lsm::Entry>* out,
                           std::vector<SliceHead>* heap) {
  // Min-heap of slice heads; each pop emits one entry and advances that
  // slice's head in place (re-pushed while the slice has entries left).
  const auto greater = [](const SliceHead& a, const SliceHead& b) {
    return a.key > b.key;
  };
  heap->clear();
  for (size_t s = 0; s < slices.size(); ++s) {
    if (!slices[s].empty()) heap->push_back(SliceHead{slices[s][0].key, s, 0});
  }
  std::make_heap(heap->begin(), heap->end(), greater);

  size_t added = 0;
  while (added < max_entries && !heap->empty()) {
    std::pop_heap(heap->begin(), heap->end(), greater);
    SliceHead& head = heap->back();
    const std::vector<lsm::Entry>& slice = slices[head.slice];
    out->push_back(slice[head.pos]);
    ++added;
    if (++head.pos < slice.size()) {
      head.key = slice[head.pos].key;
      std::push_heap(heap->begin(), heap->end(), greater);
    } else {
      heap->pop_back();
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
  return MaterializeSlot(s).store.get();
}

ShardHost::Slot& ShardHost::MaterializeSlot(size_t s) {
  CAMAL_CHECK(s < num_shards_);
  Slot& slot = slots_[s];
  if (slot.state == ShardState::kMaterialized) return slot;
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
  return slot;
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
  TouchSlot(s, slots_.at(s));
}

void ShardHost::TouchSlot(size_t s, Slot& slot) {
  if (lifecycle_.hibernate_after_batches == 0) return;
  if (slot.last_touch_epoch == epoch_) return;
  slot.last_touch_epoch = epoch_;
  idle_queue_.emplace_back(s, epoch_);
}

void ShardHost::AddList(Slot& slot) {
  slot.list = static_cast<uint32_t>(batch_.stores.size());
  slot.list_epoch = epoch_;
  batch_.stores.push_back(slot.store.get());
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
  BatchScratch& b = batch_;
  b.stores.clear();
  for (size_t s : resident_) {
    Slot& slot = slots_.at(s);
    TouchSlot(s, slot);
    b.stores.push_back(slot.store.get());
  }

  // Scatter: each resident shard contributes up to max_entries of its own
  // sorted, live entries (keys are hash-partitioned, so shard slices are
  // disjoint). Each probe touches only its own store and slice, so the
  // fan-out is deterministic; workers never touch the slot map.
  b.slices.resize(b.stores.size());
  FanOut(pool_, b.stores.size(), [&b, start_key, max_entries](size_t k) {
    b.slices[k].clear();
    b.stores[k]->Scan(start_key, max_entries, &b.slices[k]);
  });

  // Gather: binary-heap k-way merge of the disjoint sorted slices.
  return MergeDisjointSlices(b.slices, max_entries, out, &b.heap);
}

void ShardHost::ExecuteOps(const Op* ops, size_t count, OpResult* results) {
  if (count == 0) return;
  ++epoch_;
  BatchScratch& b = batch_;

  // Pass 1: bring every shard this batch drives to the materialized state.
  // Scans additionally wake all hibernated shards — their data
  // participates in every range probe — while cold shards stay cold
  // (probing an empty shard returns nothing and charges nothing, so
  // skipping them is identical to the eager engine probing them).
  b.op_slot.resize(count);
  b.scan_op.clear();
  for (size_t i = 0; i < count; ++i) {
    if (ops[i].kind == OpKind::kScan) {
      b.op_slot[i] = nullptr;
      b.scan_op.push_back(i);
    } else {
      const size_t s = ShardIndex(ops[i].key);
      Slot& slot = MaterializeSlot(s);
      TouchSlot(s, slot);
      b.op_slot[i] = &slot;  // slot addresses survive map growth
    }
  }
  const size_t num_scans = b.scan_op.size();

  // Pass 2: partition the batch into per-shard operation lists in
  // submission order: point ops go to their routed shard, a scan probe
  // appears in every resident shard's list. Each list is exactly the op
  // subsequence its shard would serve under serial execution, so running
  // the lists concurrently (shard state is fully shard-local) reproduces
  // the serial results with no barrier inside the batch. A slot carries
  // its list index for this batch's epoch, so no lookup table is built.
  b.stores.clear();
  if (num_scans > 0) {
    // The probe set is the resident set after pass 1, ascending — every
    // point shard of this batch is already in it, so no list is created
    // below, the lists stay in shard order (the gather relies on it) and
    // every list holds every scan.
    WakeAllHibernated();
    for (size_t s : resident_) {
      Slot& slot = slots_.at(s);
      TouchSlot(s, slot);
      AddList(slot);
    }
  }
  for (size_t i = 0; i < count; ++i) {
    Slot* slot = b.op_slot[i];
    if (slot != nullptr && slot->list_epoch != epoch_) AddList(*slot);
  }

  // Flat lists by counting sort: size each list (its point ops plus every
  // scan), turn the sizes into end offsets, then place ops last to first
  // so each list keeps submission order and offsets[k] ends at its start.
  const size_t num_lists = b.stores.size();
  b.offsets.assign(num_lists + 1, 0);
  for (size_t i = 0; i < count; ++i) {
    if (b.op_slot[i] != nullptr) ++b.offsets[b.op_slot[i]->list];
  }
  size_t total = 0;
  for (size_t k = 0; k < num_lists; ++k) {
    total += b.offsets[k] + num_scans;
    b.offsets[k] = total;
  }
  b.offsets[num_lists] = total;
  b.order.resize(total);
  for (size_t i = count; i-- > 0;) {
    if (b.op_slot[i] != nullptr) {
      b.order[--b.offsets[b.op_slot[i]->list]] = i;
    } else {
      for (size_t k = 0; k < num_lists; ++k) b.order[--b.offsets[k]] = i;
    }
  }

  // List k records its j-th scan probe at probes[k * num_scans + j], so
  // concurrent lists write disjoint elements. Stores were resolved above:
  // workers must never touch the slot map.
  b.probes.resize(num_scans * num_lists);
  FanOut(pool_, num_lists, [&b, ops, results, num_scans](size_t k) {
    b.stores[k]->RunOps(ops, b.order.data() + b.offsets[k],
                        b.offsets[k + 1] - b.offsets[k], results,
                        b.probes.data() + k * num_scans);
  });

  // Deterministic gather for the scans: sum the per-shard snapshots in
  // ascending shard order, diff the totals (the serial-equivalent cost;
  // absent cold shards would have contributed exact zeros), and cap the
  // combined hit count at the probe limit.
  for (size_t j = 0; j < num_scans; ++j) {
    sim::DeviceSnapshot total_before, total_after;
    size_t hits = 0;
    for (size_t k = 0; k < num_lists; ++k) {
      const ScanProbe& probe = b.probes[k * num_scans + j];
      total_before += probe.before;
      total_after += probe.after;
      hits += probe.hits;
    }
    const sim::DeviceSnapshot delta = total_after.Delta(total_before);
    const size_t i = b.scan_op[j];
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
