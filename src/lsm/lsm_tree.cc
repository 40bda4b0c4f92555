#include "lsm/lsm_tree.h"

#include <algorithm>

#include "lsm/compaction.h"
#include "lsm/monkey.h"
#include "util/status.h"

namespace camal::lsm {

namespace {
constexpr double kBloomBuildNsPerEntry = 30.0;
}  // namespace

LsmTree::LsmTree(const Options& options, sim::Device* device)
    : options_(options),
      device_(device),
      cache_(options.block_cache_bytes / device->config().block_bytes) {
  CAMAL_CHECK(options.Validate().ok());
}

LsmTree::LsmTree(FrozenTreeState state, sim::Device* device)
    : options_(state.options),
      device_(device),
      cache_(0),
      levels_(std::move(state.levels)),
      counters_(state.counters),
      next_run_id_(state.next_run_id),
      transition_active_(state.transition_active) {
  memtable_.LoadSorted(state.memtable);
  cache_.Restore(state.cache);
}

std::unique_ptr<FrozenTreeState> LsmTree::Freeze() {
  auto state = std::make_unique<FrozenTreeState>();
  state->total_entries = TotalEntries();
  state->disk_entries = DiskEntries();
  state->options = options_;
  state->memtable = memtable_.DrainSorted();
  state->levels = std::move(levels_);
  state->counters = counters_;
  state->cache = cache_.Freeze();
  state->next_run_id = next_run_id_;
  state->transition_active = transition_active_;
  return state;
}

void LsmTree::Put(uint64_t key, uint64_t value) {
  memtable_.Put(key, value, /*tombstone=*/false, device_);
  if (memtable_.size() >= options_.BufferEntries()) FlushMemtable();
}

void LsmTree::Delete(uint64_t key) {
  memtable_.Put(key, 0, /*tombstone=*/true, device_);
  if (memtable_.size() >= options_.BufferEntries()) FlushMemtable();
}

bool LsmTree::Get(uint64_t key, uint64_t* value) {
  Entry entry;
  if (memtable_.Get(key, &entry, device_)) {
    if (entry.tombstone) return false;
    if (value != nullptr) *value = entry.value;
    return true;
  }
  const int deepest = levels_.DeepestNonEmpty();
  for (int level = 0; level <= deepest; ++level) {
    const auto& runs = levels_.At(static_cast<size_t>(level));
    for (auto it = runs.rbegin(); it != runs.rend(); ++it) {  // newest first
      device_->ChargeCpu(device_->config().cpu_run_probe_ns);
      const Run::LookupOutcome outcome =
          (*it)->Get(key, &entry, device_, &cache_);
      if (outcome == Run::LookupOutcome::kFound) {
        if (entry.tombstone) return false;
        if (value != nullptr) *value = entry.value;
        return true;
      }
    }
  }
  return false;
}

size_t LsmTree::Scan(uint64_t start_key, size_t max_entries,
                     std::vector<Entry>* out) {
  if (max_entries == 0) return 0;
  const sim::DeviceConfig& cfg = device_->config();

  // Source 0 is the memtable (newest), walked in place from `mem`; then
  // runs ordered newest-to-oldest. Nothing writes the memtable during the
  // scan, and its tombstones shadow run entries through the merge's
  // `newest` flag however far into the scan they reach.
  Memtable::Table::const_iterator mem = memtable_.LowerBound(start_key);
  std::vector<ScanCursor>& cursors = scan_cursors_;
  cursors.assign(1, ScanCursor{});
  const int deepest = levels_.DeepestNonEmpty();
  for (int level = 0; level <= deepest; ++level) {
    const auto& runs = levels_.At(static_cast<size_t>(level));
    for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
      ScanCursor c;
      c.run = it->get();
      device_->ChargeCpu(cfg.cpu_run_probe_ns);
      c.idx = c.run->FirstGeq(start_key, device_);
      c.end = c.run->size();
      cursors.push_back(c);
    }
  }

  auto entry_at = [&](size_t s) -> const Entry& {
    const ScanCursor& c = cursors[s];
    return c.run != nullptr ? c.run->entry(c.idx) : mem->second;
  };

  size_t added = 0;
  MergeNewestFirst(
      cursors.size(), [&] { return added < max_entries; },
      [&](size_t s) {
        const ScanCursor& c = cursors[s];
        return c.run != nullptr ? c.idx < c.end : mem != memtable_.end();
      },
      [&](size_t s) { return entry_at(s).key; },
      [&](size_t s, bool newest) {
        ScanCursor& c = cursors[s];
        device_->ChargeCpu(cfg.cpu_iter_next_ns);
        if (c.run != nullptr) {
          // Charge the block this entry lives in when the cursor enters it.
          const auto block = static_cast<int64_t>(c.idx / EntriesPerBlock());
          if (block != c.last_block) {
            c.run->ChargeBlockAccess(c.idx, device_, &cache_);
            c.last_block = block;
          }
        }
        const Entry& e = entry_at(s);
        if (newest && !e.tombstone) {
          if (out != nullptr) out->push_back(e);
          ++added;
        }
        if (c.run != nullptr) {
          ++c.idx;
        } else {
          ++mem;
        }
      });
  return added;
}

void LsmTree::FlushMemtable() {
  if (memtable_.empty()) return;
  std::vector<Entry> entries = memtable_.DrainSorted();
  RunPtr run =
      BuildRun(std::move(entries), /*target_level=*/0, /*drained_level=*/-1);
  levels_.At(0).push_back(std::move(run));
  ++counters_.flushes;
  NormalizeFrom(0);
}

void LsmTree::Reconfigure(const Options& new_options) {
  CAMAL_CHECK(new_options.Validate().ok());
  CAMAL_CHECK(new_options.entry_bytes == options_.entry_bytes);
  options_ = new_options;
  cache_.Resize(new_options.block_cache_bytes /
                device_->config().block_bytes);
  transition_active_ = AnyLevelViolates(levels_, options_);
  // The structure morphs lazily: violations are resolved by the next
  // natural flush/compaction, not here. An over-full memtable flushes on
  // the next write.
}

RunPtr LsmTree::BuildRun(std::vector<Entry> entries, size_t target_level,
                         int drained_level) {
  CAMAL_CHECK(!entries.empty());
  const double bpk =
      BloomBpkForLevel(target_level, entries.size(), drained_level);
  const uint64_t per_block = EntriesPerBlock();
  const uint64_t n = entries.size();
  auto run = std::make_shared<const Run>(next_run_id_++, std::move(entries),
                                         per_block, bpk, options_.entry_bytes,
                                         options_.file_bytes);
  const uint64_t blocks = run->num_blocks();
  for (uint64_t b = 0; b < blocks; ++b) device_->WriteBlock();
  counters_.compaction_block_writes += blocks;
  // The run builds its filter on first probe, but the simulated cost of
  // that build is charged here, when the run is written.
  device_->ChargeCpu(kBloomBuildNsPerEntry * static_cast<double>(n));
  device_->ChargeCpu(device_->config().cpu_file_finalize_ns *
                     static_cast<double>(run->num_files()));
  if (transition_active_) counters_.transition_ios += blocks;
  return run;
}

double LsmTree::BloomBpkForLevel(size_t target_level, uint64_t incoming,
                                 int drained_level) const {
  std::vector<uint64_t> counts = levels_.EntryCounts();
  if (counts.size() <= target_level) counts.resize(target_level + 1, 0);
  if (drained_level >= 0 &&
      static_cast<size_t>(drained_level) < counts.size()) {
    counts[static_cast<size_t>(drained_level)] = 0;
  }
  counts[target_level] += incoming;
  const std::vector<double> bpk =
      MonkeyAllocate(static_cast<double>(options_.bloom_bits), counts);
  return bpk[target_level];
}

void LsmTree::NormalizeFrom(size_t level_idx) {
  for (size_t i = level_idx;; ++i) {
    auto& runs = levels_.At(i);
    if (runs.empty()) break;

    const auto max_runs = static_cast<size_t>(options_.MaxRunsPerLevel());
    if (runs.size() > max_runs) {
      RunPtr merged = MergeLevelIntoRun(i, i);
      runs.clear();
      runs.push_back(std::move(merged));
    }

    const double cap = options_.LevelCapacityEntries(static_cast<int>(i));
    if (static_cast<double>(levels_.LevelEntries(i)) <= cap) break;

    // Push this level's data down one level.
    RunPtr moving;
    if (runs.size() == 1) {
      moving = runs.front();
    } else {
      moving = MergeLevelIntoRun(i, i + 1);
    }
    runs.clear();
    levels_.At(i + 1).push_back(std::move(moving));
  }
  if (transition_active_ && !AnyLevelViolates(levels_, options_)) {
    transition_active_ = false;
  }
}

RunPtr LsmTree::MergeLevelIntoRun(size_t level_idx, size_t output_level) {
  const auto& runs = levels_.At(level_idx);
  CAMAL_CHECK(!runs.empty());
  std::vector<RunPtr> newest_first(runs.rbegin(), runs.rend());

  uint64_t input_blocks = 0;
  uint64_t input_entries = 0;
  for (const RunPtr& run : newest_first) {
    input_blocks += run->num_blocks();
    input_entries += run->size();
  }
  for (uint64_t b = 0; b < input_blocks; ++b) device_->ReadBlockSequential();
  counters_.compaction_block_reads += input_blocks;
  if (transition_active_) counters_.transition_ios += input_blocks;
  device_->ChargeCpu(device_->config().cpu_entry_merge_ns *
                     static_cast<double>(input_entries));

  const bool bottommost =
      static_cast<int>(level_idx) >= levels_.DeepestNonEmpty() &&
      output_level >= level_idx;
  std::vector<Entry> merged = MergeRuns(newest_first, bottommost);
  ++counters_.merges;
  // Merging tombstones against each other can annihilate everything.
  if (merged.empty()) {
    merged.push_back(Entry{0, 0, true});
  }
  return BuildRun(std::move(merged), output_level,
                  static_cast<int>(level_idx));
}

bool AnyLevelViolates(const Levels& levels, const Options& opts) {
  for (size_t i = 0; i < levels.NumLevels(); ++i) {
    if (opts.LevelViolates(i, levels.At(i).size(), levels.LevelEntries(i))) {
      return true;
    }
  }
  return false;
}

}  // namespace camal::lsm
