#ifndef CAMAL_LSM_COMPACTION_H_
#define CAMAL_LSM_COMPACTION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lsm/entry.h"
#include "lsm/run.h"

namespace camal::lsm {

/// Compaction/flush counters of one tree; engines report their sum over
/// shards as `engine::EngineCounters` (an alias of this struct).
struct TreeCounters {
  uint64_t compaction_block_reads = 0;
  uint64_t compaction_block_writes = 0;
  /// Compaction I/O performed while the tree was morphing toward a new
  /// configuration (dynamic mode, Section 6 of the paper).
  uint64_t transition_ios = 0;
  uint64_t flushes = 0;
  uint64_t merges = 0;

  TreeCounters& operator+=(const TreeCounters& other) {
    compaction_block_reads += other.compaction_block_reads;
    compaction_block_writes += other.compaction_block_writes;
    transition_ios += other.transition_ios;
    flushes += other.flushes;
    merges += other.merges;
    return *this;
  }
};

/// The k-way merge under compactions and range scans of both backends.
/// Sources `0..n` are sorted by key and ordered newest first. Each round
/// finds the smallest key any live source holds, then calls
/// `step(s, newest)` for every live source `s` positioned at that key, in
/// source order; `newest` is true only for the first, whose version wins.
/// `step` must advance `s`. Rounds run while `more()` holds and any source
/// is live; `live(s)` and `key(s)` read a source's position.
template <typename More, typename Live, typename Key, typename Step>
void MergeNewestFirst(size_t n, More more, Live live, Key key, Step step) {
  while (more()) {
    uint64_t min_key = 0;
    bool any = false;
    for (size_t s = 0; s < n; ++s) {
      if (!live(s)) continue;
      const uint64_t k = key(s);
      if (!any || k < min_key) {
        min_key = k;
        any = true;
      }
    }
    if (!any) return;
    bool newest = true;
    for (size_t s = 0; s < n; ++s) {
      if (!live(s) || key(s) != min_key) continue;
      step(s, newest);
      newest = false;
    }
  }
}

/// The sorted entries of a merge input: a run, or entries already read.
inline const std::vector<Entry>& SortedEntries(const RunPtr& run) {
  return run->entries();
}
inline const std::vector<Entry>& SortedEntries(
    const std::vector<Entry>& entries) {
  return entries;
}

/// Merges sorted runs (or sorted entry vectors) into one sorted,
/// deduplicated entry stream.
///
/// `newest_first` orders the inputs by recency: when the same key appears in
/// several runs, the version from the earliest run in the vector wins.
/// Tombstones are carried through unless `drop_tombstones` is set (legal
/// only when merging into the bottommost populated level).
template <typename Source>
std::vector<Entry> MergeRuns(const std::vector<Source>& newest_first,
                             bool drop_tombstones) {
  std::vector<size_t> cursor(newest_first.size(), 0);
  std::vector<Entry> out;
  size_t total = 0;
  for (const Source& src : newest_first) total += SortedEntries(src).size();
  out.reserve(total);
  MergeNewestFirst(
      newest_first.size(), [] { return true; },
      [&](size_t s) {
        return cursor[s] < SortedEntries(newest_first[s]).size();
      },
      [&](size_t s) { return SortedEntries(newest_first[s])[cursor[s]].key; },
      [&](size_t s, bool newest) {
        const Entry& e = SortedEntries(newest_first[s])[cursor[s]++];
        if (newest && !(drop_tombstones && e.tombstone)) out.push_back(e);
      });
  return out;
}

}  // namespace camal::lsm

#endif  // CAMAL_LSM_COMPACTION_H_
