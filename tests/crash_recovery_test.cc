// Crash-point fault-injection matrix for the durability subsystem: a
// FileOps fault model enumerates every mutating file operation (write,
// fsync, rename, unlink, truncate, create) inside an armed operation —
// memtable flush with compaction, idle-shard hibernation, wake — then
// re-runs the scenario once per site, killing the engine (an injected
// exception) exactly there, with a torn-write variant that persists only
// half the buffer at write sites. After every crash, `reopen=true`
// recovery must restore a state logically identical (Gets over the whole
// key universe + Scans) to the never-crashed reference, without
// rebuilding a single run. Plus the clean-close paths: reopen restores
// all shards — including hibernated ones — from their manifests alone.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "engine/file_engine.h"
#include "engine/file_ops.h"
#include "lsm/options.h"

namespace camal::engine {
namespace {

namespace fs = std::filesystem;

std::string TestBase() {
  if (const char* env = std::getenv("CAMAL_FILE_WORKDIR")) return env;
  return ::testing::TempDir();
}

std::string UniqueDir(const std::string& tag) {
  return TestBase() + "/camal_crash_test_" + tag + "_" +
         std::to_string(FileEngine::NextUniqueId());
}

/// The injected "power loss". Thrown *instead of* performing the k-th
/// armed mutation, so everything before the crash point is really on
/// disk and nothing after it ever happens.
struct CrashInjected {};

/// Fault model over the FileOps seam. Three phases:
///  - counting (crash_at < 0): every armed mutation increments the site
///    counter and executes normally — the enumeration pass;
///  - crashing: the site equal to `crash_at` throws CrashInjected
///    (optionally after persisting half the buffer at a write site) and
///    flips the model inert;
///  - inert: every mutation reports success without touching disk, so
///    the crashed engine's destructor cannot repair or further damage
///    the post-crash file set. Close stays real (descriptor hygiene).
class CrashOps : public fileio::FileOps {
 public:
  void Arm() { armed_ = true; }
  void Disarm() { armed_ = false; }
  void SetCrash(int site, bool torn) {
    crash_at_ = site;
    torn_ = torn;
  }

  int sites() const { return sites_; }
  const std::vector<bool>& site_is_write() const { return site_is_write_; }

  int Open(const std::string& path, int flags, int mode) override {
    if (inert_) {
      errno = EIO;  // nothing may create files after the crash
      return -1;
    }
    Site(false);
    return FileOps::Open(path, flags, mode);
  }

  int64_t PWrite(int fd, const void* buf, uint64_t count,
                 uint64_t offset) override {
    if (inert_) return static_cast<int64_t>(count);
    if (armed_ && sites_ == crash_at_ && torn_ && count > 1) {
      // Torn write: half the buffer reaches the platter, then the power
      // goes. The CRC framing must reject the half-record on replay.
      FileOps::PWrite(fd, buf, count / 2, offset);
    }
    Site(true);
    return FileOps::PWrite(fd, buf, count, offset);
  }

  int Fsync(int fd) override {
    if (inert_) return 0;
    Site(false);
    return FileOps::Fsync(fd);
  }

  int Rename(const std::string& from, const std::string& to) override {
    if (inert_) return 0;
    Site(false);
    return FileOps::Rename(from, to);
  }

  int Unlink(const std::string& path) override {
    if (inert_) return 0;
    Site(false);
    return FileOps::Unlink(path);
  }

  int Ftruncate(int fd, uint64_t length) override {
    if (inert_) return 0;
    Site(false);
    return FileOps::Ftruncate(fd, length);
  }

 private:
  void Site(bool is_write) {
    if (!armed_) return;
    const int site = sites_++;
    site_is_write_.push_back(is_write);
    if (site == crash_at_) {
      inert_ = true;
      throw CrashInjected{};
    }
  }

  bool armed_ = false;
  bool inert_ = false;
  bool torn_ = false;
  int crash_at_ = -1;
  int sites_ = 0;
  std::vector<bool> site_is_write_;
};

using Reference = std::map<uint64_t, uint64_t>;

/// One crash scenario: how to build the pre-crash state (unarmed) and
/// which logically-neutral operation to kill (armed — a flush or a GET
/// batch changes no logical contents, so the never-crashed expectation
/// is simply the reference map the setup built).
struct Scenario {
  size_t shards = 1;
  lsm::Options options;
  ShardLifecycleConfig lifecycle;
  uint32_t rotate_records = 128;
  std::function<void(FileEngine&, Reference*)> setup;
  std::function<void(FileEngine&)> armed;
  uint64_t max_key = 0;
};

void PutBatch(FileEngine& eng, const std::vector<Op>& ops) {
  std::vector<OpResult> results(ops.size());
  eng.ExecuteOps(ops.data(), ops.size(), results.data());
}

Op Put(uint64_t key, uint64_t value) {
  Op op;
  op.kind = OpKind::kPut;
  op.key = key;
  op.value = value;
  return op;
}

Op GetOp(uint64_t key) {
  Op op;
  op.kind = OpKind::kGet;
  op.key = key;
  return op;
}

/// Gets over the whole key universe plus scans from several starts: the
/// logical-identity check between a recovered engine and the reference.
void VerifyMatchesReference(FileEngine& eng, const Reference& ref,
                            uint64_t max_key) {
  uint64_t value = 0;
  for (uint64_t k = 0; k <= max_key; ++k) {
    const auto it = ref.find(k);
    if (it != ref.end()) {
      ASSERT_TRUE(eng.Get(k, &value)) << "lost key " << k;
      EXPECT_EQ(value, it->second) << "key " << k;
    } else {
      EXPECT_FALSE(eng.Get(k, &value)) << "resurrected key " << k;
    }
  }
  for (const uint64_t start :
       {uint64_t{0}, uint64_t{37}, max_key / 2, max_key}) {
    std::vector<lsm::Entry> got;
    eng.Scan(start, 20, &got);
    auto it = ref.lower_bound(start);
    size_t i = 0;
    for (; i < 20 && it != ref.end(); ++i, ++it) {
      ASSERT_LT(i, got.size()) << "scan from " << start;
      EXPECT_EQ(got[i].key, it->first);
      EXPECT_EQ(got[i].value, it->second);
    }
    EXPECT_EQ(got.size(), i) << "scan from " << start;
  }
}

/// Runs one scenario pass against `dir` through `ops`. Returns whether
/// the armed operation crashed. The engine is destroyed before return
/// (with `ops` inert if it crashed), leaving the file set in its exact
/// post-crash state.
bool RunPass(const Scenario& sc, const std::string& dir, CrashOps* ops,
             Reference* ref) {
  FileEngineConfig cfg;
  cfg.workdir = dir;
  cfg.durable = true;
  cfg.keep_files = true;  // the reopen pass owns cleanup
  cfg.wal_sync = fileio::WalSyncPolicy::kBatch;
  cfg.manifest_rotate_records = sc.rotate_records;
  cfg.lifecycle = sc.lifecycle;
  cfg.file_ops = ops;
  FileEngine eng(sc.shards, sc.options, cfg);
  sc.setup(eng, ref);
  ops->Arm();
  bool crashed = false;
  try {
    sc.armed(eng);
  } catch (const CrashInjected&) {
    crashed = true;
  }
  ops->Disarm();
  return crashed;
}

/// Reopens the post-crash (or post-clean-close) file set and checks
/// logical identity with the reference. Recovery must not rebuild runs:
/// the reopened engine's write counter stays at zero.
void ReopenAndVerify(const Scenario& sc, const std::string& dir,
                     const Reference& ref) {
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.reopen = true;
    FileEngine eng(sc.shards, sc.options, cfg);
    EXPECT_EQ(eng.CostSnapshot().block_writes, 0u)
        << "recovery rebuilt run files instead of replaying the manifest";
    VerifyMatchesReference(eng, ref, sc.max_key);
  }
  fs::remove_all(dir);
}

/// The full matrix: enumerate the armed mutation sites once, then crash
/// at every site (and, at write sites, crash again mid-write) and prove
/// recovery restores the reference state each time.
void RunCrashMatrix(const Scenario& sc, const std::string& tag) {
  CrashOps counter;
  Reference clean_ref;
  const std::string clean_dir = UniqueDir(tag + "_clean");
  ASSERT_FALSE(RunPass(sc, clean_dir, &counter, &clean_ref));
  const int sites = counter.sites();
  ASSERT_GT(sites, 0) << "armed operation performed no mutations";
  // The clean close itself must reopen to the reference state.
  ReopenAndVerify(sc, clean_dir, clean_ref);

  for (int k = 0; k < sites; ++k) {
    for (const bool torn : {false, true}) {
      if (torn && !counter.site_is_write()[static_cast<size_t>(k)]) {
        continue;  // only writes can tear
      }
      SCOPED_TRACE(tag + " site " + std::to_string(k) +
                   (torn ? " (torn write)" : ""));
      CrashOps ops;
      ops.SetCrash(k, torn);
      Reference ref;
      const std::string dir = UniqueDir(tag + "_s" + std::to_string(k) +
                                        (torn ? "t" : ""));
      EXPECT_TRUE(RunPass(sc, dir, &ops, &ref))
          << "site " << k << " was not reached on the crash pass";
      ReopenAndVerify(sc, dir, ref);
    }
  }
}

lsm::Options CrashOptions(size_t shards) {
  lsm::Options opts;
  opts.size_ratio = 4.0;
  // Per-shard slices divide the totals; keep ~64 entries of buffer and a
  // real Bloom/cache per shard at any scenario shard count.
  opts.buffer_bytes = 64 * 128 * shards;
  opts.bloom_bits = 8 * 2000 * shards;
  opts.block_cache_bytes = 8 * 4096 * shards;
  return opts;
}

/// Keys of `eng`'s shard `s` (hash partitioning makes the split opaque;
/// ask the engine).
std::vector<uint64_t> ShardKeys(const FileEngine& eng, size_t s, size_t n,
                                uint64_t max_key) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 2; k <= max_key && keys.size() < n; k += 2) {
    if (eng.ShardIndex(k) == s) keys.push_back(k);
  }
  return keys;
}

TEST(CrashRecoveryTest, FlushAndCompactionCrashMatrix) {
  Scenario sc;
  sc.shards = 1;
  sc.options = CrashOptions(1);
  sc.rotate_records = 4;  // the armed flush also exercises rotation
  sc.max_key = 620;
  sc.setup = [](FileEngine& eng, Reference* ref) {
    // Enough entries that the setup batch itself flushes several times
    // (unarmed), so the armed flush lands on a populated level structure
    // and triggers a real merge.
    std::vector<Op> batch;
    for (uint64_t k = 2; k <= 600; k += 2) {
      batch.push_back(Put(k, k * 3 + 1));
      (*ref)[k] = k * 3 + 1;
    }
    PutBatch(eng, batch);
    // A round of overwrites and deletes: recovery must preserve
    // shadowing, not just presence.
    batch.clear();
    for (uint64_t k = 2; k <= 120; k += 2) {
      if (k % 6 == 0) {
        Op op;
        op.kind = OpKind::kDelete;
        op.key = k;
        batch.push_back(op);
        ref->erase(k);
      } else {
        batch.push_back(Put(k, k + 7));
        (*ref)[k] = k + 7;
      }
    }
    PutBatch(eng, batch);
  };
  sc.armed = [](FileEngine& eng) { eng.FlushMemtable(); };
  RunCrashMatrix(sc, "flush");
}

TEST(CrashRecoveryTest, HibernateCrashMatrix) {
  Scenario sc;
  sc.shards = 2;
  sc.options = CrashOptions(2);
  sc.lifecycle =
      ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/1};
  sc.max_key = 1200;
  sc.setup = [&sc](FileEngine& eng, Reference* ref) {
    std::vector<Op> batch;
    for (uint64_t k = 2; k <= sc.max_key; k += 2) {
      batch.push_back(Put(k, k + 5));
      (*ref)[k] = k + 5;
    }
    PutBatch(eng, batch);
    eng.FlushMemtable();
    // Fresh memtable residue in both shards: the sidecar must carry it.
    batch.clear();
    for (uint64_t k = 2; k <= 80; k += 2) {
      batch.push_back(Put(k, k + 9));
      (*ref)[k] = k + 9;
    }
    PutBatch(eng, batch);
  };
  sc.armed = [&sc](FileEngine& eng) {
    // GET-only batches confined to shard 0: shard 1 goes idle past the
    // threshold and hibernates at a batch boundary — the armed mutation
    // sites are the sidecar write, its rename, and the manifest record.
    const std::vector<uint64_t> hot = ShardKeys(eng, 0, 24, sc.max_key);
    ASSERT_FALSE(hot.empty());
    std::vector<Op> batch;
    for (const uint64_t k : hot) batch.push_back(GetOp(k));
    PutBatch(eng, batch);
    PutBatch(eng, batch);
    ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kHibernated);
  };
  RunCrashMatrix(sc, "hibernate");
}

TEST(CrashRecoveryTest, WakeCrashMatrix) {
  Scenario sc;
  sc.shards = 2;
  sc.options = CrashOptions(2);
  sc.lifecycle =
      ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/1};
  sc.max_key = 1200;
  sc.setup = [&sc](FileEngine& eng, Reference* ref) {
    std::vector<Op> batch;
    for (uint64_t k = 2; k <= sc.max_key; k += 2) {
      batch.push_back(Put(k, k + 5));
      (*ref)[k] = k + 5;
    }
    PutBatch(eng, batch);
    eng.FlushMemtable();
    batch.clear();
    for (uint64_t k = 2; k <= 80; k += 2) {
      batch.push_back(Put(k, k + 9));
      (*ref)[k] = k + 9;
    }
    PutBatch(eng, batch);
    // Hibernate shard 1 cleanly (unarmed) with shard-0-only traffic.
    const std::vector<uint64_t> hot = ShardKeys(eng, 0, 24, sc.max_key);
    batch.clear();
    for (const uint64_t k : hot) batch.push_back(GetOp(k));
    PutBatch(eng, batch);
    PutBatch(eng, batch);
    ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kHibernated);
  };
  sc.armed = [&sc](FileEngine& eng) {
    // Touching the hibernated shard wakes it: sidecar unlink, manifest
    // reopen, the kWake record — all armed crash sites.
    const std::vector<uint64_t> cold = ShardKeys(eng, 1, 24, sc.max_key);
    ASSERT_FALSE(cold.empty());
    std::vector<Op> batch;
    for (const uint64_t k : cold) batch.push_back(GetOp(k));
    PutBatch(eng, batch);
    ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kMaterialized);
  };
  RunCrashMatrix(sc, "wake");
}

// ------------------------------------------------- clean-close recovery

TEST(CrashRecoveryTest, CleanCloseReopenRestoresShardsWithoutRebuilding) {
  const std::string dir = UniqueDir("clean_reopen");
  const lsm::Options opts = CrashOptions(3);
  Reference ref;
  std::vector<size_t> run_counts(3);
  uint64_t disk_entries = 0;
  uint64_t total_entries = 0;
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.durable = true;
    cfg.keep_files = true;
    FileEngine eng(3, opts, cfg);
    std::vector<Op> batch;
    for (uint64_t k = 2; k <= 1500; k += 2) {
      batch.push_back(Put(k, k * 2 + 3));
      ref[k] = k * 2 + 3;
    }
    PutBatch(eng, batch);
    eng.FlushMemtable();
    batch.clear();
    for (uint64_t k = 2; k <= 90; k += 2) {
      if (k % 10 == 0) {
        Op op;
        op.kind = OpKind::kDelete;
        op.key = k;
        batch.push_back(op);
        ref.erase(k);
      } else {
        batch.push_back(Put(k, k));
        ref[k] = k;
      }
    }
    PutBatch(eng, batch);  // leaves live memtable residue for the WAL
    for (size_t s = 0; s < 3; ++s) run_counts[s] = eng.ShardRunCount(s);
    disk_entries = eng.DiskEntries();
    total_entries = eng.TotalEntries();
  }
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.reopen = true;
    FileEngine eng(3, opts, cfg);
    EXPECT_TRUE(eng.durable());  // reopen implies the durability layer
    // The file-set structure came back exactly — same runs per shard,
    // same disk/total entry split (memtable via WAL replay) — and no run
    // was rebuilt (zero write I/O during recovery).
    EXPECT_EQ(eng.CostSnapshot().block_writes, 0u);
    EXPECT_EQ(eng.CostSnapshot().block_reads, 0u);
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(eng.ShardRunCount(s), run_counts[s]) << "shard " << s;
    }
    EXPECT_EQ(eng.DiskEntries(), disk_entries);
    EXPECT_EQ(eng.TotalEntries(), total_entries);
    VerifyMatchesReference(eng, ref, 1500);
  }
  fs::remove_all(dir);
}

TEST(CrashRecoveryTest, HibernatedShardSurvivesRestart) {
  const std::string dir = UniqueDir("hib_restart");
  const lsm::Options opts = CrashOptions(2);
  Reference ref;
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.durable = true;
    cfg.keep_files = true;
    cfg.lifecycle =
        ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/1};
    FileEngine eng(2, opts, cfg);
    std::vector<Op> batch;
    for (uint64_t k = 2; k <= 1200; k += 2) {
      batch.push_back(Put(k, k + 11));
      ref[k] = k + 11;
    }
    PutBatch(eng, batch);
    eng.FlushMemtable();
    batch.clear();
    for (uint64_t k = 2; k <= 60; k += 2) {
      batch.push_back(Put(k, k + 13));
      ref[k] = k + 13;
    }
    PutBatch(eng, batch);
    const std::vector<uint64_t> hot = ShardKeys(eng, 0, 16, 1200);
    batch.clear();
    for (const uint64_t k : hot) batch.push_back(GetOp(k));
    PutBatch(eng, batch);
    PutBatch(eng, batch);
    ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kHibernated);
  }
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.reopen = true;
    // Hibernation stays off in the reopened engine; the shard must still
    // come back hibernated because its sidecar is registered in the
    // manifest — surviving the process restart without rebuilding.
    FileEngine eng(2, opts, cfg);
    EXPECT_EQ(eng.ShardLifecycle(1), ShardState::kHibernated);
    EXPECT_EQ(eng.CostSnapshot().block_writes, 0u);
    VerifyMatchesReference(eng, ref, 1200);  // gets wake the shard
    EXPECT_EQ(eng.ShardLifecycle(1), ShardState::kMaterialized);
  }
  fs::remove_all(dir);
}

// ------------------------------------------------ damaged hibernation sidecar

/// Keys with a distinctive top byte, so the first one a sidecar holds is
/// easy to find: the first run's min key inside its run-metadata record.
constexpr uint64_t kSidecarKeyBase = 0xA5ULL << 56;

/// Two shards; shard 1 ends hibernated with runs and memtable residue that
/// overwrites some of them. Fills `ref` with the logical contents.
void HibernateShardOne(FileEngine& eng, Reference* ref) {
  std::vector<Op> batch;
  for (uint64_t i = 1; i <= 600; ++i) {
    const uint64_t k = kSidecarKeyBase + 2 * i;
    batch.push_back(Put(k, i + 11));
    (*ref)[k] = i + 11;
  }
  PutBatch(eng, batch);
  eng.FlushMemtable();
  batch.clear();
  for (uint64_t i = 1; i <= 40; ++i) {
    const uint64_t k = kSidecarKeyBase + 2 * i;
    batch.push_back(Put(k, i + 13));
    (*ref)[k] = i + 13;
  }
  PutBatch(eng, batch);
  batch.clear();
  for (const auto& [k, v] : *ref) {
    (void)v;
    if (eng.ShardIndex(k) == 0 && batch.size() < 16) batch.push_back(GetOp(k));
  }
  PutBatch(eng, batch);
  PutBatch(eng, batch);
  ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kHibernated);
}

/// Flips one byte of the first key the sidecar at `path` holds past its
/// first frame header, turning that run's min key into one above every
/// written key.
void DamageSidecarRunMeta(const std::string& path) {
  std::string bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << path;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    std::fclose(f);
  }
  for (size_t off = 8; off + 8 <= bytes.size(); ++off) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + off, sizeof(word));
    if ((word >> 48) != (kSidecarKeyBase >> 48)) continue;
    bytes[off + 6] = static_cast<char>(bytes[off + 6] ^ 0xFF);
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return;
  }
  FAIL() << "no run key found in " << path;
}

/// Every written key answers as the oracle says, and the never-written key
/// above each stays absent.
void VerifyOracle(FileEngine& eng, const Reference& ref) {
  uint64_t value = 0;
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(eng.Get(k, &value)) << "lost key " << k;
    EXPECT_EQ(value, v) << "key " << k;
    EXPECT_FALSE(eng.Get(k + 1, &value)) << "resurrected key " << k + 1;
  }
}

TEST(CrashRecoveryTest, DamagedSidecarRecoversFromManifestAndWal) {
  const std::string dir = UniqueDir("sidecar_damage");
  const lsm::Options opts = CrashOptions(2);
  Reference ref;
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.durable = true;
    cfg.keep_files = true;
    cfg.lifecycle =
        ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/1};
    FileEngine eng(2, opts, cfg);
    HibernateShardOne(eng, &ref);
  }
  DamageSidecarRunMeta(dir + "/shard_1/hibernate.snap");
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.reopen = true;
    FileEngine eng(2, opts, cfg);
    // The sidecar fails its CRC, so recovery distrusts it and rebuilds the
    // shard live from the manifest's run metadata and the WAL.
    EXPECT_EQ(eng.ShardLifecycle(1), ShardState::kMaterialized);
    EXPECT_FALSE(fs::exists(dir + "/shard_1/hibernate.snap"));
    VerifyOracle(eng, ref);
  }
  fs::remove_all(dir);
}

/// A live, non-durable engine hibernates shard 1, its sidecar is damaged
/// on disk, then an op wakes the shard from it.
void WakeFromDamagedSidecar(const std::string& dir) {
  FileEngineConfig cfg;
  cfg.workdir = dir;
  cfg.lifecycle =
      ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/1};
  FileEngine eng(2, CrashOptions(2), cfg);
  Reference ref;
  HibernateShardOne(eng, &ref);
  DamageSidecarRunMeta(dir + "/shard_1/hibernate.snap");
  VerifyOracle(eng, ref);
}

TEST(CrashRecoveryDeathTest, DamagedSidecarAbortsLiveWake) {
  const std::string dir = UniqueDir("sidecar_wake");
  // The wake must refuse the sidecar, naming it, rather than serve from it.
  EXPECT_DEATH(WakeFromDamagedSidecar(dir), "hibernate\\.snap");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace camal::engine
