#include "engine/file_engine.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/io_ring.h"
#include "engine/manifest.h"
#include "engine/wal.h"
#include "lsm/block_cache.h"
#include "lsm/bloom.h"
#include "lsm/compaction.h"
#include "util/status.h"

namespace camal::engine {

// Implementation-detail types live in a named namespace (not an anonymous
// one) because they appear as members of FileEngine::Shard, which has
// external linkage.
namespace fileio {

namespace fs = std::filesystem;

/// On-disk record: fixed 24 bytes so blocks decode by offset arithmetic.
/// The layout is private to this engine (run files are ephemeral
/// measurement artifacts, not an interchange format).
struct DiskEntry {
  uint64_t key = 0;
  uint64_t value = 0;
  uint64_t flags = 0;  // bit 0: tombstone
};
static_assert(sizeof(DiskEntry) == 24, "record layout must stay 24 bytes");

constexpr uint64_t kTombstoneFlag = 1;

inline uint64_t EntriesPerBlock(uint64_t block_bytes) {
  return block_bytes / sizeof(DiskEntry);
}

/// Block-aligned heap buffer (O_DIRECT wants aligned reads and writes; the
/// same buffers serve the buffered fallback).
struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};
using AlignedBuf = std::unique_ptr<char[], FreeDeleter>;

inline AlignedBuf AllocAligned(size_t bytes, size_t align) {
  void* p = nullptr;
  const int rc = posix_memalign(&p, align, bytes);
  CAMAL_CHECK(rc == 0 && p != nullptr);
  return AlignedBuf(static_cast<char*>(p));
}

inline double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// An immutable cached block. Shared ownership lets cache hits hand the
/// caller a reference instead of a copy (runs are append-only, so block
/// bytes never change once read), and keeps a block a scan cursor holds
/// alive across an eviction.
using BlockPtr = std::shared_ptr<const std::vector<char>>;

/// The shard block cache: the simulated tree's LRU, carrying block bytes
/// (a real backend must serve cached bytes, not just skip a charge).
using BlockCache = lsm::BasicBlockCache<BlockPtr>;

inline BlockPtr CopyBlock(const char* bytes, uint64_t block_bytes) {
  return std::make_shared<std::vector<char>>(bytes, bytes + block_bytes);
}

/// The records of one block, decoded from its bytes.
struct BlockView {
  const char* bytes = nullptr;
  uint64_t count = 0;

  DiskEntry At(uint64_t i) const {
    DiskEntry d;
    std::memcpy(&d, bytes + i * sizeof(DiskEntry), sizeof(DiskEntry));
    return d;
  }

  /// In-block search: the index of the first record whose key is >= `key`
  /// (`count` when there is none).
  uint64_t Seek(uint64_t key) const {
    uint64_t lo = 0;
    uint64_t hi = count;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (At(mid).key < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Whether the block holds `key`; its record lands in `*out`.
  bool Find(uint64_t key, DiskEntry* out) const {
    const uint64_t i = Seek(key);
    if (i == count) return false;
    *out = At(i);
    return out->key == key;
  }
};

/// One immutable sorted run persisted as an append-only file. Fence
/// pointers (first key per block) and the Bloom filter stay in memory;
/// block contents are fetched by pread.
struct FileRun {
  uint64_t id = 0;
  std::string path;
  int fd = -1;
  uint64_t num_entries = 0;
  std::vector<uint64_t> fence;  // first key of each block
  lsm::BloomFilter filter;
  uint64_t min_key = 0;
  uint64_t max_key = 0;

  ~FileRun() {
    if (fd >= 0) ::close(fd);
  }
  size_t num_blocks() const { return fence.size(); }

  /// Fence search: the block whose first key is the greatest <= `key`.
  size_t FenceBlock(uint64_t key) const {
    const auto it = std::upper_bound(fence.begin(), fence.end(), key);
    return static_cast<size_t>(it - fence.begin()) - 1;
  }

  /// Point-probe candidate: the block that may hold `key` after the range
  /// check, the Bloom check and the fence search; false when the run
  /// cannot hold it.
  bool CandidateBlock(uint64_t key, size_t* blk) const {
    if (key < min_key || key > max_key || !filter.MayContain(key)) {
      return false;
    }
    *blk = FenceBlock(key);
    return true;
  }

  /// Block `blk`'s records within `bytes` (the block's contents).
  BlockView View(size_t blk, const char* bytes, uint64_t block_bytes) const {
    const uint64_t epb = EntriesPerBlock(block_bytes);
    return BlockView{bytes, std::min(epb, num_entries - blk * epb)};
  }

  /// Reads block `blk` into `buf` (one pread; aborts on a short read).
  /// Uncounted: callers charge the read where it is workload cost.
  void ReadBlock(size_t blk, uint64_t block_bytes, char* buf) const {
    const ssize_t n = ::pread(fd, buf, block_bytes,
                              static_cast<off_t>(blk * block_bytes));
    SysCheck(n == static_cast<ssize_t>(block_bytes), "pread", path);
  }
};
using FileRunPtr = std::shared_ptr<FileRun>;

/// Real per-shard cost clock: actual block reads/writes plus accumulated
/// monotonic wall time, reported through the `sim::DeviceSnapshot`
/// currency so the arbiter and bench observability read it unchanged.
struct Clock {
  uint64_t block_reads = 0;
  uint64_t block_writes = 0;
  double elapsed_ns = 0.0;

  sim::DeviceSnapshot Snapshot() const {
    return sim::DeviceSnapshot{block_reads, block_writes, elapsed_ns};
  }
};

inline lsm::Entry ToEntry(const DiskEntry& d) {
  return lsm::Entry{d.key, d.value, (d.flags & kTombstoneFlag) != 0};
}

inline int OpenRead(const std::string& path, bool direct) {
  int flags = O_RDONLY;
  if (direct) flags |= O_DIRECT;
  int fd = ::open(path.c_str(), flags);
  if (fd < 0 && direct) fd = ::open(path.c_str(), O_RDONLY);
  SysCheck(fd >= 0, "open", path);
  return fd;
}

}  // namespace fileio

/// One shard: a file set (levels of runs) plus memtable, Bloom filters,
/// content cache, live options, and its own cost clock. All state is
/// shard-local so per-shard submission lists can run concurrently. The
/// `ShardStore` methods are defined after the file-set helpers below.
struct FileEngine::Shard final : public ShardStore {
  Shard(const FileEngine& owner, size_t index) : owner(owner), index(index) {}
  /// Clean close: buffered WAL writes land (and, per policy, sync) so
  /// `reopen=true` restores the exact logical state; run files close.
  ~Shard() override {
    if (wal != nullptr) wal->Commit();
  }

  void Open(const lsm::Options& opts) override;
  void Freeze() override;
  void Thaw() override;
  void Write(uint64_t key, uint64_t value, bool tombstone) override;
  bool Get(uint64_t key, uint64_t* value) override;
  size_t Scan(uint64_t start_key, size_t max_entries,
              std::vector<lsm::Entry>* out) override;
  void RunOps(const Op* ops, const size_t* list, size_t n, OpResult* results,
              ScanProbe* probes) override;
  void Flush() override;
  void Reconfigure(const lsm::Options& opts) override;
  bool ReconfigureFrozen(const lsm::Options& opts) override;
  bool FrozenHasBufferedWrites() const override {
    return hib_memtable_size > 0;
  }
  lsm::Options CurrentOptions() const override { return options; }
  sim::DeviceSnapshot Cost() const override { return clock.Snapshot(); }
  EngineCounters Counters() const override { return counters; }
  uint64_t TotalEntries() const override {
    return disk_entries + (hibernated ? hib_memtable_size : memtable.size());
  }
  uint64_t DiskEntries() const override { return disk_entries; }
  bool InTransition() const override;

  const FileEngine& owner;
  const size_t index;
  lsm::Options options;
  std::string dir;
  std::map<uint64_t, lsm::Entry> memtable;
  /// levels[l] holds runs oldest-to-newest (read newest first).
  std::vector<std::vector<fileio::FileRunPtr>> levels;
  fileio::BlockCache cache{0};
  fileio::Clock clock;
  EngineCounters counters;
  uint64_t next_run_id = 1;
  uint64_t disk_entries = 0;
  /// pread target; block-aligned for O_DIRECT.
  fileio::AlignedBuf scratch;
  /// Ring path state (null/empty on the pread path): the shard-owned
  /// submission ring, one aligned read buffer per queue slot, and the
  /// resolved queue depth (shard options override the engine default).
  std::unique_ptr<fileio::IoRing> ring;
  std::vector<fileio::AlignedBuf> ring_bufs;
  uint32_t io_depth = 1;

  /// Durability state (null with `FileEngineConfig::durable` off — the
  /// layer then has zero hot-path presence). The manifest logs every
  /// structural transition of the file set; the WAL logs memtable
  /// contents, stamped with `wal_epoch`. A flush bumps the epoch (in the
  /// manifest's kFlush record, the durable marker that older WAL entries
  /// now live in a run) and resets the WAL.
  std::unique_ptr<fileio::Manifest> manifest;
  std::unique_ptr<fileio::Wal> wal;
  uint64_t wal_epoch = 0;
  /// Manifest record count carried across hibernation (the writer and its
  /// fd close while asleep).
  size_t manifest_records = 0;

  /// Hibernation state. While hibernated, the heavy members above
  /// (memtable, levels and their fds, cache contents, scratch, ring) are
  /// released into the sidecar file `dir + "/hibernate.snap"`; the cheap
  /// residuals below keep the observability surface (entries, run counts,
  /// transition status) answerable without rehydrating.
  bool hibernated = false;
  uint64_t hib_memtable_size = 0;
  /// Per-level (run count, entry count) at hibernation time.
  fileio::LevelShape hib_level_shape;
};

namespace {

using fileio::AllocAligned;
using fileio::DiskEntry;
using fileio::EntriesPerBlock;
using fileio::FileRun;
using fileio::FileRunPtr;
using fileio::kTombstoneFlag;
using fileio::NowNs;
using fileio::SysCheck;
using fileio::ToEntry;
namespace fs = std::filesystem;

/// Cache-aware fetch of block `blk` of `run`. A hit hands back the cached
/// buffer (zero copies); a miss preads into the shard scratch buffer and
/// materializes the bytes into exactly one heap buffer, shared between the
/// caller and the cache.
fileio::BlockPtr FetchBlock(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                            const FileRun& run, size_t blk) {
  const uint64_t key = lsm::BlockCache::MakeKey(run.id, blk);
  if (const fileio::BlockPtr* hit = sh.cache.Find(key)) return *hit;
  run.ReadBlock(blk, cfg.block_bytes, sh.scratch.get());
  ++sh.clock.block_reads;
  fileio::BlockPtr block = fileio::CopyBlock(sh.scratch.get(), cfg.block_bytes);
  sh.cache.Insert(key, block);
  return block;
}

// --------------------------------------------------------------- durability

/// Whether durability writes should reach the platter before the engine
/// proceeds (the `wal_sync` policy knob, gated on the layer being on).
bool DurableSync(const FileEngineConfig& cfg) {
  return cfg.durable && cfg.wal_sync != fileio::WalSyncPolicy::kNone;
}

/// Manifest-side metadata of a built run: everything recovery needs to
/// reopen it without reading a block.
fileio::ManifestRunMeta RunMetaOf(const FileRun& run) {
  return {run.id, run.num_entries, run.min_key, run.max_key, run.fence,
          run.filter.memory_bits(),
          static_cast<uint32_t>(run.filter.num_hashes()),
          run.filter.bits_per_key(), run.filter.words()};
}

/// The live shard's full structural state, as a manifest rotation
/// snapshot.
fileio::RecoveredShardState SnapshotShardState(const FileEngine::Shard& sh) {
  fileio::RecoveredShardState st;
  st.valid = true;
  st.options = sh.options;
  st.wal_epoch = sh.wal_epoch;
  st.next_run_id = sh.next_run_id;
  st.levels.resize(sh.levels.size());
  for (size_t l = 0; l < sh.levels.size(); ++l) {
    st.levels[l].reserve(sh.levels[l].size());
    for (const FileRunPtr& r : sh.levels[l]) {
      st.levels[l].push_back(RunMetaOf(*r));
    }
  }
  return st;
}

/// Compacts the manifest to one snapshot record once it outgrows the
/// configured threshold. Called only at quiescent points (after a flush
/// cascade settles, after reconfigure/wake) where the in-memory state is
/// the authoritative truth.
void MaybeRotateManifest(FileEngine::Shard& sh, const FileEngineConfig& cfg) {
  if (sh.manifest == nullptr) return;
  sh.manifest->MaybeRotate(SnapshotShardState(sh), cfg.manifest_rotate_records);
}

std::string RunPath(const std::string& dir, uint64_t id) {
  return dir + "/run_" + std::to_string(id) + ".cam";
}

/// The memtable's entries in key order.
std::vector<lsm::Entry> MemtableEntries(const FileEngine::Shard& sh) {
  std::vector<lsm::Entry> entries;
  entries.reserve(sh.memtable.size());
  for (const auto& [key, entry] : sh.memtable) {
    (void)key;
    entries.push_back(entry);
  }
  return entries;
}

/// Builds one run file from sorted, deduplicated `entries`: serializes
/// them into block-aligned pages, writes the file append-only (one pass,
/// never modified again), and opens it for reads.
FileRunPtr BuildRun(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                    bool direct_io, std::vector<lsm::Entry> entries,
                    double bloom_bits_per_key) {
  CAMAL_CHECK(!entries.empty());
  const uint64_t epb = EntriesPerBlock(cfg.block_bytes);
  const size_t num_blocks = (entries.size() + epb - 1) / epb;

  auto run = std::make_shared<FileRun>();
  run->id = sh.next_run_id++;
  run->path = RunPath(sh.dir, run->id);
  run->num_entries = entries.size();
  run->min_key = entries.front().key;
  run->max_key = entries.back().key;
  run->filter = lsm::BloomFilter(entries.size(), bloom_bits_per_key);
  run->fence.reserve(num_blocks);

  fileio::AlignedBuf buf =
      AllocAligned(num_blocks * cfg.block_bytes, cfg.block_bytes);
  std::memset(buf.get(), 0, num_blocks * cfg.block_bytes);
  for (size_t i = 0; i < entries.size(); ++i) {
    const lsm::Entry& e = entries[i];
    const size_t blk = i / epb;
    const size_t slot = i % epb;
    // Records pack densely within each page; pages start at multiples of
    // block_bytes (24 does not divide 4096, so each page tail stays zero
    // padding — never decoded, because per-block record counts derive
    // from num_entries).
    auto* records =
        reinterpret_cast<DiskEntry*>(buf.get() + blk * cfg.block_bytes);
    records[slot].key = e.key;
    records[slot].value = e.value;
    records[slot].flags = e.tombstone ? kTombstoneFlag : 0;
    if (slot == 0) run->fence.push_back(e.key);
    run->filter.Add(e.key);
  }

  fileio::FileOps* ops = cfg.file_ops;
  int flags = O_WRONLY | O_CREAT | O_TRUNC;
  if (direct_io) flags |= O_DIRECT;
  int fd = ops->Open(run->path, flags, 0644);
  if (fd < 0 && direct_io) {
    fd = ops->Open(run->path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  SysCheck(fd >= 0, "open(write)", run->path);
  const size_t total = num_blocks * cfg.block_bytes;
  size_t off = 0;
  while (off < total) {
    const int64_t n = ops->PWrite(fd, buf.get() + off, total - off, off);
    SysCheck(n > 0, "pwrite", run->path);
    off += static_cast<size_t>(n);
  }
  // A run must be durable before the manifest record that references it
  // commits.
  if (DurableSync(cfg)) SysCheck(ops->Fsync(fd) == 0, "fsync", run->path);
  ops->Close(fd);
  sh.clock.block_writes += num_blocks;

  run->fd = fileio::OpenRead(run->path, direct_io);
  return run;
}

uint64_t LevelEntries(const std::vector<FileRunPtr>& level) {
  uint64_t total = 0;
  for (const FileRunPtr& r : level) total += r->num_entries;
  return total;
}

/// Per-level (run count, entry count) of the shard's file set; the frozen
/// residual while hibernated.
fileio::LevelShape LevelShapeOf(const FileEngine::Shard& sh) {
  if (sh.hibernated) return sh.hib_level_shape;
  fileio::LevelShape shape;
  for (const auto& level : sh.levels) {
    shape.emplace_back(level.size(), LevelEntries(level));
  }
  return shape;
}

/// Bits-per-key for a new run: the shard's Bloom budget spread uniformly
/// over its (post-build) disk entries. Uniform rather than Monkey-curved:
/// the real backend validates *budget* tunings; the per-level curve is a
/// sim-side refinement.
double BloomBpk(const FileEngine::Shard& sh, uint64_t incoming) {
  const uint64_t total = std::max<uint64_t>(1, sh.disk_entries + incoming);
  return std::min(50.0, static_cast<double>(sh.options.bloom_bits) /
                            static_cast<double>(total));
}

/// Reads every entry of `run` sequentially (compaction input: bypasses the
/// cache, counts real reads as compaction I/O). Records decode straight
/// out of the scratch buffer — no per-block heap allocation at all.
void ReadAllEntries(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                    const FileRun& run, std::vector<lsm::Entry>* out) {
  for (size_t blk = 0; blk < run.num_blocks(); ++blk) {
    run.ReadBlock(blk, cfg.block_bytes, sh.scratch.get());
    ++sh.clock.block_reads;
    ++sh.counters.compaction_block_reads;
    const fileio::BlockView view =
        run.View(blk, sh.scratch.get(), cfg.block_bytes);
    for (uint64_t i = 0; i < view.count; ++i) {
      out->push_back(ToEntry(view.At(i)));
    }
  }
}

/// Merges every run of level `l` into one run pushed to level `l + 1`
/// (newest-wins on duplicate keys; tombstones drop when the output
/// becomes the deepest populated level), then unlinks the inputs.
void MergeLevelDown(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                    bool direct_io, size_t l) {
  std::vector<FileRunPtr> inputs = std::move(sh.levels[l]);
  sh.levels[l].clear();
  if (sh.levels.size() <= l + 1) sh.levels.resize(l + 2);

  bool deeper_data = false;
  for (size_t d = l + 1; d < sh.levels.size(); ++d) {
    if (!sh.levels[d].empty()) deeper_data = true;
  }

  // The level's runs are stored oldest-to-newest; the merge wants them
  // newest first.
  std::vector<std::vector<lsm::Entry>> newest_first(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    ReadAllEntries(sh, cfg, *inputs[inputs.size() - 1 - i], &newest_first[i]);
  }
  // Tombstones drop when nothing deeper is left to shadow.
  std::vector<lsm::Entry> out =
      lsm::MergeRuns(newest_first, /*drop_tombstones=*/!deeper_data);

  uint64_t drained = 0;
  for (const FileRunPtr& r : inputs) drained += r->num_entries;
  sh.disk_entries -= drained;

  std::vector<fileio::ManifestRunMeta> added;
  if (!out.empty()) {
    const uint64_t incoming = out.size();
    FileRunPtr run =
        BuildRun(sh, cfg, direct_io, std::move(out), BloomBpk(sh, incoming));
    sh.counters.compaction_block_writes += run->num_blocks();
    sh.disk_entries += run->num_entries;
    if (sh.manifest != nullptr) added.push_back(RunMetaOf(*run));
    sh.levels[l + 1].push_back(std::move(run));
  }
  ++sh.counters.merges;

  if (sh.manifest != nullptr) {
    // One composite record carries removed inputs and the added output:
    // the transition commits atomically (CRC framing — a torn record is
    // ignored wholesale), so recovery sees the old file set or the new
    // one, never a mix. Only after it commits may the inputs disappear.
    std::vector<uint64_t> removed;
    removed.reserve(inputs.size());
    for (const FileRunPtr& r : inputs) removed.push_back(r->id);
    sh.manifest->LogCompact(static_cast<uint32_t>(l), removed, added);
  }
  for (const FileRunPtr& r : inputs) cfg.file_ops->Unlink(r->path);
}

/// Restores the level invariants (runs <= K, entries <= capacity) from
/// level 0 downward, cascading merges as needed.
void Normalize(FileEngine::Shard& sh, const FileEngineConfig& cfg,
               bool direct_io) {
  for (size_t l = 0; l < sh.levels.size(); ++l) {
    while (sh.options.LevelViolates(l, sh.levels[l].size(),
                                    LevelEntries(sh.levels[l]))) {
      MergeLevelDown(sh, cfg, direct_io, l);
    }
  }
}

/// Drains the memtable into a new level-0 run (no-op when empty).
void FlushShard(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                bool direct_io) {
  if (sh.memtable.empty()) return;
  std::vector<lsm::Entry> entries = MemtableEntries(sh);
  sh.memtable.clear();
  if (sh.levels.empty()) sh.levels.resize(1);
  const uint64_t incoming = entries.size();
  FileRunPtr run =
      BuildRun(sh, cfg, direct_io, std::move(entries), BloomBpk(sh, incoming));
  sh.disk_entries += run->num_entries;
  if (sh.manifest != nullptr) {
    // The epoch bump rides in the kFlush record: once it commits, every
    // WAL entry logged under the old epoch is durable in the run and will
    // be filtered out of replay — so a crash between this commit and the
    // WAL reset below cannot double-apply them.
    ++sh.wal_epoch;
    sh.manifest->LogFlush(sh.wal_epoch, RunMetaOf(*run));
    sh.wal->Reset();
  }
  sh.levels[0].push_back(std::move(run));
  ++sh.counters.flushes;
  Normalize(sh, cfg, direct_io);
  MaybeRotateManifest(sh, cfg);
}

/// Untimed single-shard write (the public surface wraps these in the
/// shard clock; ExecuteOps times them per op).
void DoPut(FileEngine::Shard& sh, const FileEngineConfig& cfg, bool direct_io,
           uint64_t key, uint64_t value, bool tombstone) {
  if (sh.memtable.size() >= sh.options.BufferEntries()) {
    FlushShard(sh, cfg, direct_io);
  }
  const lsm::Entry e{key, value, tombstone};
  sh.memtable[key] = e;
  // Logged at the *current* epoch, buffered until the enclosing batch (or
  // single-op call) commits — group commit on batch boundaries.
  if (sh.wal != nullptr) sh.wal->Append(sh.wal_epoch, &e, 1);
}

bool DoGet(FileEngine::Shard& sh, const FileEngineConfig& cfg, uint64_t key,
           uint64_t* value) {
  auto it = sh.memtable.find(key);
  if (it != sh.memtable.end()) {
    if (it->second.tombstone) return false;
    if (value != nullptr) *value = it->second.value;
    return true;
  }
  for (const auto& level : sh.levels) {
    for (auto rit = level.rbegin(); rit != level.rend(); ++rit) {
      const FileRun& run = **rit;
      size_t blk = 0;
      if (!run.CandidateBlock(key, &blk)) continue;
      const fileio::BlockPtr block = FetchBlock(sh, cfg, run, blk);
      DiskEntry found;
      if (run.View(blk, block->data(), cfg.block_bytes).Find(key, &found)) {
        if (found.flags & kTombstoneFlag) return false;
        if (value != nullptr) *value = found.value;
        return true;
      }
      // Bloom false positive: the block read was paid in vain, exactly
      // like the simulated engine's kNotFoundAfterIo outcome.
    }
  }
  return false;
}

/// The queue depth a shard running `options` resolves: shard options
/// override the engine default when nonzero. Also answers queue-depth and
/// backend queries for shards that have no live ring state yet (cold) or
/// released it (hibernated).
uint32_t ResolvedQueueDepth(const lsm::Options& options,
                            const FileEngineConfig& cfg) {
  return std::max<uint32_t>(
      1, options.io_queue_depth > 0
             ? static_cast<uint32_t>(options.io_queue_depth)
             : cfg.io_queue_depth);
}

bool RingWouldEngage(uint32_t depth, const FileEngineConfig& cfg,
                     bool engine_uring) {
  return engine_uring && (cfg.io_mode == IoMode::kUring || depth > 1);
}

/// Resolves the shard's effective queue depth and (re)builds its ring +
/// slot buffers.
/// The ring engages when the engine-level probe passed and either the
/// mode forces it (kUring) or overlap is actually requested (depth > 1);
/// kAuto at depth 1 keeps today's pread behavior byte for byte. A no-op
/// when nothing changed, so arbiter-driven reconfigs stay cheap.
void SetupShardRing(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                    bool engine_uring) {
  const uint32_t depth = ResolvedQueueDepth(sh.options, cfg);
  const bool engage = RingWouldEngage(depth, cfg, engine_uring);
  if (depth == sh.io_depth && engage == (sh.ring != nullptr)) return;
  sh.io_depth = depth;
  sh.ring.reset();
  sh.ring_bufs.clear();
  if (!engage) return;
  auto ring = std::make_unique<fileio::IoRing>(depth);
  if (!ring->ok()) return;  // per-shard setup failure: pread fallback
  sh.ring = std::move(ring);
  sh.ring_bufs.reserve(depth);
  for (uint32_t i = 0; i < depth; ++i) {
    sh.ring_bufs.push_back(AllocAligned(cfg.block_bytes, cfg.block_bytes));
  }
}

/// Gives a live shard its read-path state: the block cache at its
/// options' capacity, the scratch buffer, and the ring.
void OpenReadPath(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                  bool engine_uring) {
  sh.cache.Resize(sh.options.block_cache_bytes / cfg.block_bytes);
  sh.scratch = AllocAligned(cfg.block_bytes, cfg.block_bytes);
  sh.io_depth = 0;  // force SetupShardRing to resolve from scratch
  SetupShardRing(sh, cfg, engine_uring);
}

std::string SidecarPath(const std::string& dir) {
  return dir + "/hibernate.snap";
}

/// A shard's hibernation sidecar: a record file of three CRC-framed
/// records — the structural state (the manifest's snapshot codec: run
/// metadata with fences and Bloom internals), the memtable (one WAL-format
/// record) and the cache keys, most recent first.
struct Sidecar {
  fileio::RecoveredShardState state;
  fileio::WalReplayRecord memtable;
  std::vector<uint64_t> cache_keys;
};

/// Reads the sidecar at `path`. False unless it exists and parses whole:
/// exactly three CRC-valid records, each decoding to its last byte.
bool ReadSidecar(const std::string& path, Sidecar* out) {
  const fileio::RecordFileContents file = fileio::ReadRecordFile(path);
  if (!file.exists || file.torn_tail || file.records.size() != 3) return false;
  if (!fileio::DecodeShardState(file.records[0], &out->state) ||
      !fileio::DecodeWalRecord(file.records[1], &out->memtable)) {
    return false;
  }
  fileio::ByteReader keys(file.records[2]);
  out->cache_keys = keys.U64Vec();
  return keys.ok() && keys.AtEnd();
}

/// Reopens the runs `levels` describes as the shard's file set. Fences and
/// Bloom filters come from the metadata, so not one block is read.
void OpenLevels(FileEngine::Shard& sh,
                std::vector<std::vector<fileio::ManifestRunMeta>> levels,
                bool direct_io) {
  sh.levels.resize(levels.size());
  for (size_t l = 0; l < levels.size(); ++l) {
    sh.levels[l].reserve(levels[l].size());
    for (fileio::ManifestRunMeta& meta : levels[l]) {
      auto run = std::make_shared<FileRun>();
      run->id = meta.id;
      run->path = RunPath(sh.dir, meta.id);
      run->num_entries = meta.num_entries;
      run->min_key = meta.min_key;
      run->max_key = meta.max_key;
      run->fence = std::move(meta.fence);
      run->filter = lsm::BloomFilter::FromParts(
          std::move(meta.bloom_words), meta.bloom_bits,
          static_cast<int>(meta.bloom_hashes), meta.bloom_bpk);
      run->fd = fileio::OpenRead(run->path, direct_io);
      sh.levels[l].push_back(std::move(run));
    }
  }
}

/// Persists a shard's in-memory structures into its sidecar file and
/// releases them. The sidecar carries everything materialization cannot
/// rebuild from the run files alone without charging I/O: the memtable,
/// per-run metadata (fences, Bloom internals), and the cache's key
/// recency order. All sidecar I/O is deliberately uncounted — hibernation
/// is a resource-management event, not workload cost — so every clock and
/// counter the engine reports stays bit-identical to an eager engine.
void HibernateShardState(FileEngine::Shard& sh, const FileEngineConfig& cfg) {
  // Buffered writes must be durable before their in-memory home is
  // released (the sidecar is belt, the WAL is suspenders: if the sidecar
  // install is lost to a crash, replay still rebuilds the memtable).
  if (sh.wal != nullptr) sh.wal->Commit();

  const std::vector<lsm::Entry> memtable = MemtableEntries(sh);
  fileio::ByteWriter keys;
  keys.U64Vec(sh.cache.Freeze().keys_mru_to_lru);
  const std::string path = SidecarPath(sh.dir);
  SysCheck(fileio::InstallRecordFile(
               cfg.file_ops, path,
               {fileio::EncodeShardState(SnapshotShardState(sh)),
                fileio::EncodeWalRecord(sh.wal_epoch, memtable.data(),
                                        memtable.size()),
                keys.Take()},
               DurableSync(cfg)),
           "install(hibernate)", path);

  // Cheap residuals keep size/transition queries answerable while asleep.
  sh.hib_memtable_size = sh.memtable.size();
  sh.hib_level_shape = LevelShapeOf(sh);

  // Registering the sidecar in the manifest is what makes hibernation
  // survive the process: a reopened engine sees the kHibernate record and
  // restores the shard asleep. Crash before this record commits → the
  // manifest still says "live" and recovery takes the WAL path (the stray
  // sidecar is swept as an orphan).
  if (sh.manifest != nullptr) {
    sh.manifest->LogHibernate(sh.hib_memtable_size, sh.hib_level_shape);
    // A hibernated shard holds no descriptors: the log writers close too
    // (the record count survives in a residual for the wake reopen).
    sh.manifest_records = sh.manifest->record_count();
    sh.manifest.reset();
    sh.wal.reset();
  }

  sh.memtable.clear();
  sh.levels.clear();  // closes every run fd
  sh.scratch.reset();
  sh.ring.reset();
  sh.ring_bufs.clear();
  sh.io_depth = 1;
  sh.hibernated = true;
}

/// Rehydrates a hibernated shard from its sidecar: reopens run files,
/// rebuilds fences and Bloom filters from the persisted internals, and
/// refills the block cache to its exact pre-hibernation recency order
/// with uncounted preads. The woken shard behaves bit-identically — same
/// lookup outcomes, same charged reads, same LRU evolution — to one that
/// never slept. A sidecar that does not parse whole aborts the process:
/// its bytes are never served.
void WakeShardState(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                    bool direct_io, bool engine_uring) {
  const std::string path = SidecarPath(sh.dir);
  Sidecar snap;
  if (!ReadSidecar(path, &snap)) {
    std::fprintf(stderr,
                 "FileEngine: hibernation sidecar '%s' is missing or fails "
                 "its CRC/decode check\n",
                 path.c_str());
    std::abort();
  }
  for (const lsm::Entry& e : snap.memtable.entries) {
    sh.memtable.emplace_hint(sh.memtable.end(), e.key, e);
  }
  OpenLevels(sh, std::move(snap.state.levels), direct_io);
  std::unordered_map<uint64_t, const FileRun*> run_by_id;
  for (const auto& level : sh.levels) {
    for (const FileRunPtr& run : level) run_by_id.emplace(run->id, run.get());
  }

  OpenReadPath(sh, cfg, engine_uring);
  cfg.file_ops->Unlink(path);

  if (cfg.durable) {
    // Reopen the log writers the shard closed at hibernation and record
    // the transition. A crash between the sidecar unlink above and this
    // record landing is safe: the manifest still says "hibernated", and
    // recovery, finding no sidecar, falls back to the live path — run
    // metadata from the manifest, memtable from the WAL (committed before
    // the sidecar was written).
    sh.manifest = std::make_unique<fileio::Manifest>(
        cfg.file_ops, sh.dir, DurableSync(cfg), sh.manifest_records);
    sh.wal = std::make_unique<fileio::Wal>(cfg.file_ops, sh.dir, cfg.wal_sync);
    sh.manifest->LogWake();
  }
  // Refill most-recent-first up to the (possibly shrunk-while-asleep)
  // capacity, inserting least-recent first so promotion lands every key
  // in its original recency slot. Uncounted reads: the cache held these
  // bytes when the shard went to sleep.
  const std::vector<uint64_t>& keys = snap.cache_keys;
  const size_t restore =
      std::min<size_t>(keys.size(), sh.cache.capacity_blocks());
  for (size_t i = restore; i-- > 0;) {
    const auto [run_id, blk] = lsm::BlockCache::SplitKey(keys[i]);
    const auto rit = run_by_id.find(run_id);
    if (rit == run_by_id.end()) {
      // A block of a run a compaction has since deleted. Run ids are never
      // reused, so it is never read again, but it still holds an LRU slot
      // in a shard that never slept — so it holds one here too.
      sh.cache.Insert(keys[i], nullptr);
      continue;
    }
    rit->second->ReadBlock(blk, cfg.block_bytes, sh.scratch.get());
    sh.cache.Insert(keys[i],
                    fileio::CopyBlock(sh.scratch.get(), cfg.block_bytes));
  }

  sh.hibernated = false;
  sh.hib_memtable_size = 0;
  sh.hib_level_shape.clear();
  MaybeRotateManifest(sh, cfg);
}

/// Executes a maximal run of consecutive `kGet` ops from one shard's
/// submission list with reads overlapped on the shard's io_uring ring (up
/// to `sh.io_depth` in flight), reproducing the serial pread path's
/// logical results and I/O accounting exactly.
///
/// Why two phases: a Get's *logical* block-access sequence — which runs
/// pass the range/Bloom checks, which fence block each probes, where the
/// probe chain stops — depends only on the immutable file set and the
/// key, never on cache state (a cached block holds the same bytes as the
/// file). The cache only decides which accesses are charged as reads and
/// how the LRU evolves, and those decisions depend on strict op order.
/// So:
///
///   Phase A (discovery) resolves every op's ordered access list with
///   ring-overlapped reads, consulting the cache through non-promoting
///   `Peek` and a window content table that dedups in-flight blocks.
///   Phase B (replay) walks the ops serially in submission order,
///   replaying `Lookup`/`Insert` against the real cache — producing
///   exactly the serial path's per-op `ios`, `block_reads`, and final
///   LRU state.
///
/// Physical reads can only decrease (in-window duplicate fetches dedup);
/// every counter the engine reports is bit-identical to the pread path.
/// Window wall time is attributed evenly across the window's ops (real
/// latencies are allowed to vary; counters are the determinism contract).
void ExecuteGetWindow(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                      const Op* ops, const size_t* op_idx, size_t window,
                      OpResult* results) {
  const uint32_t depth = sh.io_depth;
  const double t0 = NowNs();

  // Flattened probe order: runs newest-first within each level, levels
  // top-down — exactly the order DoGet walks.
  std::vector<const FileRun*> probe;
  for (const auto& level : sh.levels) {
    for (auto rit = level.rbegin(); rit != level.rend(); ++rit) {
      probe.push_back(rit->get());
    }
  }

  struct Fetch {
    uint64_t key = 0;  // cache key
    const FileRun* run = nullptr;
    size_t blk = 0;
  };
  struct GetState {
    uint64_t key = 0;
    size_t next_run = 0;  // next probe[] candidate to consider
    bool resolved = false;
    bool found = false;
    bool waiting = false;  // parked on pending's content
    Fetch pending;
    std::vector<uint64_t> accesses;  // cache keys, in probe order
  };
  std::vector<GetState> states(window);

  // Window content table: block bytes by cache key, filled from cache
  // peeks and ring completions. Replay inserts into the cache from here.
  std::unordered_map<uint64_t, fileio::BlockPtr> contents;
  // Ops parked on a block that is queued or in flight; a block has an
  // entry exactly while its fetch is pending, which dedups fetches.
  std::unordered_map<uint64_t, std::vector<size_t>> waiters;
  std::deque<Fetch> backlog;  // waiting for a free ring slot
  std::vector<Fetch> slots(depth);  // the fetch each ring slot serves
  std::vector<uint32_t> free_slots(depth);
  std::iota(free_slots.begin(), free_slots.end(), 0u);
  uint32_t inflight = 0;

  // Advances one op until it resolves or parks on a block that is not
  // available yet (registering it as a waiter and queueing the fetch).
  auto advance = [&](size_t si) {
    GetState& st = states[si];
    while (!st.resolved) {
      if (st.waiting) {
        auto cit = contents.find(st.pending.key);
        if (cit == contents.end()) return;  // still in flight
        st.waiting = false;
        const Fetch& p = st.pending;
        DiskEntry hit;
        if (p.run->View(p.blk, cit->second->data(), cfg.block_bytes)
                .Find(st.key, &hit)) {
          st.found = (hit.flags & kTombstoneFlag) == 0;
          st.resolved = true;
          return;
        }
        continue;  // Bloom false positive: on to the next candidate run
      }
      const FileRun* run = nullptr;
      size_t blk = 0;
      while (run == nullptr && st.next_run < probe.size()) {
        const FileRun* r = probe[st.next_run++];
        if (r->CandidateBlock(st.key, &blk)) run = r;
      }
      if (run == nullptr) {
        st.resolved = true;  // every candidate exhausted: a miss
        return;
      }
      const uint64_t ckey = lsm::BlockCache::MakeKey(run->id, blk);
      st.accesses.push_back(ckey);
      st.pending = Fetch{ckey, run, blk};
      st.waiting = true;
      if (contents.count(ckey) != 0) continue;  // fetched earlier this window
      if (const fileio::BlockPtr* peeked = sh.cache.Peek(ckey)) {
        contents.emplace(ckey, *peeked);
        continue;
      }
      std::vector<size_t>& parked = waiters[ckey];
      if (parked.empty()) backlog.push_back(st.pending);
      parked.push_back(si);
      return;
    }
  };

  // Moves backlog entries into free ring slots and submits them.
  auto pump = [&] {
    while (inflight < depth && !backlog.empty()) {
      const Fetch f = backlog.front();
      backlog.pop_front();
      const uint32_t slot = free_slots.back();
      free_slots.pop_back();
      slots[slot] = f;
      const bool prepped =
          sh.ring->PrepRead(f.run->fd, sh.ring_bufs[slot].get(),
                            static_cast<unsigned>(cfg.block_bytes),
                            f.blk * cfg.block_bytes, slot);
      CAMAL_CHECK(prepped);
      ++inflight;
    }
    const int submitted = sh.ring->Submit();
    SysCheck(submitted >= 0, "io_uring_enter(submit)", sh.dir);
  };

  // Phase A: seed every op in submission order, then drain completions,
  // re-advancing parked ops (which may queue further fetches) until all
  // access sequences are resolved.
  {
    // Memtable hits resolve with zero block accesses, like DoGet.
    for (size_t si = 0; si < window; ++si) {
      GetState& st = states[si];
      st.key = ops[op_idx[si]].key;
      auto it = sh.memtable.find(st.key);
      if (it != sh.memtable.end()) {
        st.resolved = true;
        st.found = !it->second.tombstone;
      }
    }
    for (size_t si = 0; si < window; ++si) advance(si);
    pump();
    std::vector<fileio::IoRing::Completion> comps;
    while (inflight > 0) {
      comps.clear();
      const int n = sh.ring->WaitCompletions(1, &comps);
      SysCheck(n > 0, "io_uring_enter(wait)", sh.dir);
      for (const fileio::IoRing::Completion& c : comps) {
        const auto slot = static_cast<uint32_t>(c.user_data);
        SysCheck(c.result == static_cast<int32_t>(cfg.block_bytes),
                 "ring read", slots[slot].run->path);
        const uint64_t ckey = slots[slot].key;
        contents.emplace(ckey, fileio::CopyBlock(sh.ring_bufs[slot].get(),
                                                 cfg.block_bytes));
        free_slots.push_back(slot);
        --inflight;
        auto wit = waiters.find(ckey);
        if (wit != waiters.end()) {
          const std::vector<size_t> parked = std::move(wit->second);
          waiters.erase(wit);
          for (size_t si : parked) advance(si);
        }
      }
      pump();
    }
  }

  // Phase B: replay cache decisions serially in submission order. This
  // charges per-op reads and evolves the LRU exactly as the pread path
  // would have.
  for (size_t si = 0; si < window; ++si) {
    GetState& st = states[si];
    CAMAL_CHECK(st.resolved);
    uint64_t ios = 0;
    for (uint64_t ckey : st.accesses) {
      if (sh.cache.Lookup(ckey)) continue;  // a (promoted) hit
      ++ios;
      auto cit = contents.find(ckey);
      CAMAL_CHECK(cit != contents.end());
      sh.cache.Insert(ckey, cit->second);
    }
    sh.clock.block_reads += ios;
    OpResult r;
    r.found = st.found;
    r.ios = ios;
    results[op_idx[si]] = r;
  }
  const double dt = NowNs() - t0;
  sh.clock.elapsed_ns += dt;
  const double per_op = dt / static_cast<double>(window);
  for (size_t si = 0; si < window; ++si) {
    results[op_idx[si]].latency_ns = per_op;
  }
}

/// Shard-local range scan: merges the memtable with run cursors
/// (newest wins, tombstones suppress), appending up to `max_entries` live
/// entries to `out` (a null `out` only counts them, with the same reads).
/// Block fetches are cache-aware real reads.
size_t DoScanShard(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                   uint64_t start_key, size_t max_entries,
                   std::vector<lsm::Entry>* out) {
  if (max_entries == 0) return 0;
  const uint64_t epb = EntriesPerBlock(cfg.block_bytes);

  struct Cursor {
    const FileRun* run = nullptr;  // null for the memtable source
    uint64_t idx = 0;
    uint64_t end = 0;
    int64_t block = -1;
    fileio::BlockPtr block_data;  // shared with the cache; eviction-safe
  };
  // Newest source first: the memtable, walked in place from `mem`. Nothing
  // writes it during the scan, and its tombstones shadow run entries
  // through the merge's `newest` flag however far into the scan they reach.
  std::map<uint64_t, lsm::Entry>::const_iterator mem =
      sh.memtable.lower_bound(start_key);
  std::vector<Cursor> cursors(1);
  for (const auto& level : sh.levels) {
    for (auto rit = level.rbegin(); rit != level.rend(); ++rit) {
      const FileRun& run = **rit;
      Cursor c;
      c.run = &run;
      c.end = run.num_entries;
      if (start_key <= run.min_key) {
        c.idx = 0;
      } else if (start_key > run.max_key) {
        c.idx = c.end;
      } else {
        const size_t blk = run.FenceBlock(start_key);
        c.block_data = FetchBlock(sh, cfg, run, blk);
        c.block = static_cast<int64_t>(blk);
        // Seek == count means the next block's first key >= start_key (the
        // fence search guarantees it).
        c.idx = blk * epb +
                run.View(blk, c.block_data->data(), cfg.block_bytes)
                    .Seek(start_key);
      }
      cursors.push_back(std::move(c));
    }
  }

  auto entry_at = [&](size_t s) -> lsm::Entry {
    Cursor& c = cursors[s];
    if (c.run == nullptr) return mem->second;
    const auto blk = static_cast<int64_t>(c.idx / epb);
    if (blk != c.block) {
      c.block_data = FetchBlock(sh, cfg, *c.run, static_cast<size_t>(blk));
      c.block = blk;
    }
    return ToEntry(fileio::BlockView{c.block_data->data(), epb}.At(c.idx % epb));
  };

  size_t added = 0;
  lsm::MergeNewestFirst(
      cursors.size(), [&] { return added < max_entries; },
      [&](size_t s) {
        const Cursor& c = cursors[s];
        return c.run != nullptr ? c.idx < c.end : mem != sh.memtable.end();
      },
      [&](size_t s) { return entry_at(s).key; },
      [&](size_t s, bool newest) {
        if (newest) {
          const lsm::Entry e = entry_at(s);
          if (!e.tombstone) {
            if (out != nullptr) out->push_back(e);
            ++added;
          }
        }
        if (cursors[s].run != nullptr) {
          ++cursors[s].idx;
        } else {
          ++mem;
        }
      });
  return added;
}

}  // namespace

// ----------------------------------------------------- construction/teardown

uint64_t FileEngine::NextUniqueId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

FileEngine::FileEngine(size_t num_shards, const lsm::Options& total_options,
                       const FileEngineConfig& config)
    : ShardHost(num_shards, total_options, config.lifecycle),
      config_(config) {
  CAMAL_CHECK(config_.block_bytes >= 512 &&
              (config_.block_bytes & (config_.block_bytes - 1)) == 0);
  // Normalize the durability knobs once: reopening implies the layer is
  // on, and a null seam resolves to raw syscalls so every mutation site
  // can call through `config_.file_ops` unconditionally.
  if (config_.reopen) config_.durable = true;
  if (config_.file_ops == nullptr) config_.file_ops = fileio::FileOps::Real();

  workdir_ = config_.workdir;
  if (workdir_.empty()) {
    workdir_ = (fs::temp_directory_path() /
                ("camal_file_engine_" + std::to_string(::getpid()) + "_" +
                 std::to_string(NextUniqueId())))
                   .string();
  }
  std::error_code ec;
  created_workdir_ = fs::create_directories(workdir_, ec);
  SysCheck(!ec, "create_directories", workdir_);

  // Probe the working directory's filesystem for O_DIRECT support once:
  // filesystems without it (tmpfs, some network/overlay mounts) refuse at
  // open(2) time, and the engine falls back to buffered I/O.
  if (config_.try_direct_io) {
    const std::string probe = workdir_ + "/.direct_probe";
    const int fd = ::open(probe.c_str(), O_WRONLY | O_CREAT | O_DIRECT, 0644);
    if (fd >= 0) {
      direct_io_ = true;
      ::close(fd);
    }
    ::unlink(probe.c_str());
  }

  // Ring capability resolves once per engine: the build must carry the
  // ring path and the kernel must accept io_uring_setup. Whether a given
  // shard actually engages its ring also depends on mode and depth
  // (SetupShardRing); everything else falls back to pread automatically.
  use_uring_ = config_.io_mode != IoMode::kPread && fileio::IoRingSupported();

  if (config_.reopen) RecoverShards();
  MaterializeIfEager();
}

FileEngine::~FileEngine() {
  std::vector<std::string> dirs;
  for (size_t s : StoreIds()) dirs.push_back(ShardPtr(s)->dir);
  // Destroying a shard commits its WAL and closes its run files, before
  // the directory tree is touched. Hibernated shards committed theirs
  // when they went to sleep.
  ReleaseStores();
  if (config_.keep_files) return;
  std::error_code ec;
  if (created_workdir_) {
    fs::remove_all(workdir_, ec);
  } else {
    // The caller owned the directory before us: remove only our shard
    // subtrees, never sibling content. Cold shards never created theirs.
    for (const std::string& dir : dirs) fs::remove_all(dir, ec);
  }
}

void FileEngine::RecoverShards() {
  // Every shard that ever materialized left a directory; everything else
  // stays cold (a cold shard is empty, which is exactly what the twin
  // engine that never crashed would report for it).
  std::vector<std::pair<size_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(workdir_)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard_", 0) != 0) continue;
    char* end = nullptr;
    const unsigned long long s = std::strtoull(name.c_str() + 6, &end, 10);
    if (end == nullptr || *end != '\0') continue;  // not ours
    CAMAL_CHECK(s < NumShards());  // reopened with a smaller shard count
    found.emplace_back(static_cast<size_t>(s), entry.path().string());
  }
  // Deterministic recovery order (directory iteration order is not).
  std::sort(found.begin(), found.end());
  for (const auto& [s, dir] : found) RecoverShard(s, dir);
}

void FileEngine::RecoverShard(size_t s, const std::string& dir) {
  fileio::FileOps* ops = config_.file_ops;
  fileio::RecoveredShardState st;
  if (!fileio::RecoverManifest(fileio::Manifest::PathFor(dir), &st)) {
    // No replayable manifest (absent, empty, or corrupt from record 0):
    // nothing durable ever committed here, so the shard recovers to the
    // empty (cold) state and the leftovers go.
    std::error_code ec;
    fs::remove_all(dir, ec);
    return;
  }

  auto sh = std::make_unique<Shard>(*this, s);
  sh->options = st.options;
  sh->dir = dir;
  sh->wal_epoch = st.wal_epoch;
  sh->next_run_id = st.next_run_id;
  for (const auto& level : st.levels) {
    for (const fileio::ManifestRunMeta& run : level) {
      sh->disk_entries += run.num_entries;
    }
  }

  // A manifest that says "hibernated" is believed only if the sidecar
  // made it to disk whole; otherwise (crash in the hibernate window, a
  // damaged or foreign-format sidecar) the shard recovers live from run
  // metadata + WAL.
  Sidecar sidecar;
  const bool hibernated =
      st.hibernated && ReadSidecar(SidecarPath(dir), &sidecar);

  // Sweep orphans: files the durable state does not reference — run files
  // whose introducing record never committed, rotation/sidecar tmp files,
  // a sidecar the manifest no longer claims or recovery does not trust.
  {
    std::set<std::string> keep = {fileio::Manifest::PathFor(dir),
                                  fileio::Wal::PathFor(dir)};
    if (hibernated) keep.insert(SidecarPath(dir));
    for (const auto& level : st.levels) {
      for (const fileio::ManifestRunMeta& run : level) {
        keep.insert(RunPath(dir, run.id));
      }
    }
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string path = entry.path().string();
      if (keep.count(path) == 0) ops->Unlink(path);
    }
  }

  // Truncate a torn manifest tail before anything appends after it.
  const bool sync = DurableSync(config_);
  if (st.tail_torn) {
    fileio::Manifest(ops, dir, sync, st.num_records)
        .TruncateTail(st.valid_bytes);
  }
  if (hibernated) {
    // Restored asleep: residuals only, no descriptors, no heap state —
    // the next touching op wakes it through the ordinary sidecar path.
    sh->hibernated = true;
    sh->hib_memtable_size = st.hib_memtable_entries;
    sh->hib_level_shape = std::move(st.hib_shape);
    sh->manifest_records = st.num_records;
    AdoptStore(s, std::move(sh), ShardState::kHibernated);
    return;
  }

  // Live shard: reopen every run straight from its logged metadata.
  // Recovery I/O is uncounted (clocks start at zero, like any fresh
  // engine).
  OpenLevels(*sh, std::move(st.levels), direct_io_);

  // WAL tail replay: only records stamped with the recovered epoch are
  // live (older ones were flushed into a run before the epoch bumped);
  // within the epoch, later records win, same as the memtable they log.
  const fileio::WalReplay replay = fileio::ReadWal(fileio::Wal::PathFor(dir));
  for (const fileio::WalReplayRecord& rec : replay.records) {
    if (rec.epoch != sh->wal_epoch) continue;
    for (const lsm::Entry& e : rec.entries) sh->memtable[e.key] = e;
  }

  // Repair the logs: rewrite the WAL to exactly the recovered memtable
  // (dropping dead epochs and torn bytes), and compact the manifest if it
  // has grown past the rotation threshold.
  sh->manifest = std::make_unique<fileio::Manifest>(ops, dir, sync,
                                                    st.num_records);
  sh->wal = std::make_unique<fileio::Wal>(ops, dir, config_.wal_sync);
  sh->wal->Reset();
  const std::vector<lsm::Entry> entries = MemtableEntries(*sh);
  sh->wal->Append(sh->wal_epoch, entries.data(), entries.size());
  sh->wal->Commit();
  MaybeRotateManifest(*sh, config_);

  OpenReadPath(*sh, config_, use_uring_);
  AdoptStore(s, std::move(sh), ShardState::kMaterialized);
}

std::unique_ptr<ShardStore> FileEngine::NewStore(size_t s) {
  return std::make_unique<Shard>(*this, s);
}

const FileEngine::Shard* FileEngine::ShardPtr(size_t s) const {
  CAMAL_CHECK(s < NumShards());
  return static_cast<const Shard*>(FindStore(s));
}

// ------------------------------------------------------------- shard store

void FileEngine::Shard::Open(const lsm::Options& opts) {
  const FileEngineConfig& cfg = owner.config_;
  options = opts;
  dir = owner.workdir_ + "/shard_" + std::to_string(index);
  std::error_code ec;
  fs::create_directories(dir, ec);
  SysCheck(!ec, "create_directories", dir);
  if (cfg.durable) {
    // A fresh shard starts fresh logs; stale files from an earlier engine
    // in a reused directory (reopen=false deliberately ignores them) must
    // not be appended to.
    cfg.file_ops->Unlink(fileio::Manifest::PathFor(dir));
    cfg.file_ops->Unlink(fileio::Wal::PathFor(dir));
    manifest = std::make_unique<fileio::Manifest>(cfg.file_ops, dir,
                                                  DurableSync(cfg));
    manifest->LogInit(index, options);
    wal = std::make_unique<fileio::Wal>(cfg.file_ops, dir, cfg.wal_sync);
  }
  OpenReadPath(*this, cfg, owner.use_uring_);
}

void FileEngine::Shard::Freeze() {
  HibernateShardState(*this, owner.config_);
}

void FileEngine::Shard::Thaw() {
  WakeShardState(*this, owner.config_, owner.direct_io_, owner.use_uring_);
}

void FileEngine::Shard::Write(uint64_t key, uint64_t value, bool tombstone) {
  const double t0 = NowNs();
  DoPut(*this, owner.config_, owner.direct_io_, key, value, tombstone);
  if (wal != nullptr) wal->Commit();  // single-op "batch"
  clock.elapsed_ns += NowNs() - t0;
}

bool FileEngine::Shard::Get(uint64_t key, uint64_t* value) {
  const double t0 = NowNs();
  const bool found = DoGet(*this, owner.config_, key, value);
  clock.elapsed_ns += NowNs() - t0;
  return found;
}

size_t FileEngine::Shard::Scan(uint64_t start_key, size_t max_entries,
                               std::vector<lsm::Entry>* out) {
  const double t0 = NowNs();
  const size_t n = DoScanShard(*this, owner.config_, start_key, max_entries,
                               out);
  clock.elapsed_ns += NowNs() - t0;
  return n;
}

void FileEngine::Shard::RunOps(const Op* ops, const size_t* list, size_t n,
                               OpResult* results, ScanProbe* probes) {
  const FileEngineConfig& cfg = owner.config_;
  for (size_t li = 0; li < n;) {
    const size_t i = list[li];
    const Op& op = ops[i];
    // Ring path: a maximal run of consecutive gets becomes one overlapped
    // submission window. Puts/deletes (may flush or compact) and scans
    // (content-dependent cursors) stay synchronous barriers, executed
    // exactly as on the pread path.
    if (ring != nullptr && op.kind == OpKind::kGet) {
      size_t end = li + 1;
      while (end < n && ops[list[end]].kind == OpKind::kGet) ++end;
      ExecuteGetWindow(*this, cfg, ops, list + li, end - li, results);
      li = end;
      continue;
    }
    ++li;
    if (op.kind == OpKind::kScan) {
      // Only the hit count is reported: the scan counts without copying.
      probes->before = clock.Snapshot();
      const double t0 = NowNs();
      probes->hits =
          DoScanShard(*this, cfg, op.key, op.scan_len, /*out=*/nullptr);
      clock.elapsed_ns += NowNs() - t0;
      probes->after = clock.Snapshot();
      ++probes;
      continue;
    }
    const uint64_t ios_before = clock.block_reads + clock.block_writes;
    const double t0 = NowNs();
    OpResult r;
    if (op.kind == OpKind::kGet) {
      r.found = DoGet(*this, cfg, op.key, nullptr);
    } else {
      DoPut(*this, cfg, owner.direct_io_, op.key, op.value,
            /*tombstone=*/op.kind == OpKind::kDelete);
    }
    const double dt = NowNs() - t0;
    r.latency_ns = dt;
    r.ios = clock.block_reads + clock.block_writes - ios_before;
    clock.elapsed_ns += dt;
    results[i] = r;
  }
  // Group commit: the shard's whole batch of logged writes lands in one
  // pwrite (+ one fsync under kBatch). Untimed — durability overhead is
  // measured by bench_recovery, not charged to op latencies.
  if (wal != nullptr) wal->Commit();
}

void FileEngine::Shard::Flush() {
  const double t0 = NowNs();
  FlushShard(*this, owner.config_, owner.direct_io_);
  clock.elapsed_ns += NowNs() - t0;
}

void FileEngine::Shard::Reconfigure(const lsm::Options& opts) {
  const FileEngineConfig& cfg = owner.config_;
  CAMAL_CHECK(opts.entry_bytes == options.entry_bytes);
  const double t0 = NowNs();
  options = opts;
  if (manifest != nullptr) manifest->LogOptions(opts);
  // The cache resizes immediately; a memtable over the new buffer
  // capacity flushes now; run files converge lazily through subsequent
  // flush/compaction cascades (InTransition reports the interim).
  cache.Resize(opts.block_cache_bytes / cfg.block_bytes);
  if (memtable.size() >= options.BufferEntries()) {
    FlushShard(*this, cfg, owner.direct_io_);
  }
  // A changed io_queue_depth rebuilds the shard's ring and slot buffers
  // (no-op otherwise). Counters stay identical at any depth, so the tuner
  // may retune this knob mid-run like any other.
  SetupShardRing(*this, cfg, owner.use_uring_);
  MaybeRotateManifest(*this, cfg);
  clock.elapsed_ns += NowNs() - t0;
}

bool FileEngine::Shard::ReconfigureFrozen(const lsm::Options& opts) {
  const FileEngineConfig& cfg = owner.config_;
  CAMAL_CHECK(opts.entry_bytes == options.entry_bytes);
  // In place while asleep, unless the buffered writes now overflow the
  // new capacity — then the shard must wake to flush, exactly as the live
  // path would (waking already sizes the cache from the new options).
  options = opts;
  if (hib_memtable_size >= opts.BufferEntries()) return false;
  if (cfg.durable) {
    // The shard's writers are closed while it sleeps; a short-lived one
    // records the change so a restart wakes into the new config.
    fileio::Manifest temp(cfg.file_ops, dir, DurableSync(cfg),
                          manifest_records);
    temp.LogOptions(opts);
    manifest_records = temp.record_count();
  }
  return true;
}

bool FileEngine::Shard::InTransition() const {
  // A hibernated shard judges its frozen shape against the (possibly
  // updated-in-place) options.
  const fileio::LevelShape shape = LevelShapeOf(*this);
  for (size_t l = 0; l < shape.size(); ++l) {
    if (options.LevelViolates(l, shape[l].first, shape[l].second)) return true;
  }
  return false;
}

// ------------------------------------------------------- backend surface

uint32_t FileEngine::ShardQueueDepth(size_t s) const {
  const Shard* sh = ShardPtr(s);
  if (sh != nullptr && !sh->hibernated) {
    return sh->ring != nullptr ? sh->io_depth : 1;
  }
  // Cold/hibernated: predict the depth materialization will resolve.
  const lsm::Options& options =
      sh != nullptr ? sh->options : EffectiveOptions(s);
  const uint32_t depth = ResolvedQueueDepth(options, config_);
  return RingWouldEngage(depth, config_, use_uring_) ? depth : 1;
}

const char* FileEngine::io_backend() const {
  for (size_t s : resident()) {
    if (ShardPtr(s)->ring != nullptr) return "uring";
  }
  // No live ring: predict whether any cold/hibernated shard would engage
  // one on materialization. All such shards run either their recorded
  // options or the engine default, so checking hibernated shards plus one
  // representative of each cold configuration covers every case without
  // an O(total shards) walk.
  const size_t num_shards = NumShards();
  if (use_uring_ && resident().size() < num_shards) {
    auto engages = [&](const lsm::Options& options) {
      return RingWouldEngage(ResolvedQueueDepth(options, config_), config_,
                             use_uring_);
    };
    for (size_t s : hibernated()) {
      if (engages(ShardPtr(s)->options)) return "uring";
    }
    const size_t awake = resident().size() + hibernated().size();
    if (awake < num_shards) {
      for (const auto& [s, options] : cold_options()) {
        (void)s;
        if (engages(options)) return "uring";
      }
      if (cold_options().size() < num_shards - awake &&
          engages(default_options())) {
        return "uring";
      }
    }
  }
  return "pread";
}

size_t FileEngine::ShardRunCount(size_t s) const {
  const Shard* sh = ShardPtr(s);
  if (sh == nullptr) return 0;
  size_t runs = 0;
  for (const auto& [count, entries] : LevelShapeOf(*sh)) {
    (void)entries;
    runs += count;
  }
  return runs;
}

}  // namespace camal::engine
