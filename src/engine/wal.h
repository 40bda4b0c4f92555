#ifndef CAMAL_ENGINE_WAL_H_
#define CAMAL_ENGINE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/record_log.h"
#include "lsm/entry.h"

namespace camal::engine::fileio {

/// When WAL bytes reach the platter.
enum class WalSyncPolicy {
  /// Never fsync: durable across clean close + reopen (page cache flushes
  /// eventually), but a crash may lose recent writes. Zero added latency.
  kNone,
  /// fsync once per committed batch (group commit) — the default: one
  /// sync amortized over the whole `ExecuteOps` batch.
  kBatch,
  /// fsync every logged write: strongest guarantee, highest latency.
  kAlways,
};

/// One replayed WAL record: the entries of a single `Append`, plus the
/// epoch they were logged under.
struct WalReplayRecord {
  uint64_t epoch = 0;
  std::vector<lsm::Entry> entries;
};

/// Encodes one WAL record payload: `n` entries logged at `epoch`, each as
/// the key/value/flags triple the run files use. A hibernation sidecar
/// stores its memtable as one such record.
std::string EncodeWalRecord(uint64_t epoch, const lsm::Entry* entries,
                            size_t n);

/// Decodes one `EncodeWalRecord` payload. Returns false unless it parses
/// whole.
bool DecodeWalRecord(const std::string& payload, WalReplayRecord* out);

/// \brief Per-shard write-ahead log of memtable contents.
///
/// Each record carries the WAL **epoch** current at append time plus a
/// batch of entries (CRC-framed by `RecordWriter`, torn-tail truncated by
/// replay). A flush bumps the shard's epoch in the manifest (`kFlush`)
/// and resets this log; replay applies only records stamped with the
/// recovered epoch, so a crash *between* the manifest commit and the log
/// reset cannot double-apply entries that already live in a run.
///
/// Appends buffer until `Commit` — group commit on batch boundaries —
/// except under `kAlways`, where every append commits (and syncs)
/// immediately.
class Wal {
 public:
  Wal(FileOps* ops, const std::string& shard_dir, WalSyncPolicy policy);

  /// Logs `n` entries at `epoch`. Buffered until `Commit` (kNone/kBatch);
  /// committed and synced immediately under kAlways.
  void Append(uint64_t epoch, const lsm::Entry* entries, size_t n);

  /// Writes everything buffered (one pwrite) and fsyncs under
  /// kBatch/kAlways. The engine calls this at batch boundaries and on
  /// clean close.
  void Commit();

  /// Drops buffered appends and truncates the log to empty — the
  /// post-flush reset (all logged entries are now durable in a run).
  void Reset();

  /// Truncates a recovery-detected torn tail at `valid_bytes`.
  void TruncateTail(uint64_t valid_bytes);

  const std::string& path() const { return path_; }

  static std::string PathFor(const std::string& shard_dir) {
    return shard_dir + "/WAL";
  }

 private:
  FileOps* ops_;
  std::string path_;
  WalSyncPolicy policy_;
  std::unique_ptr<RecordWriter> writer_;
};

struct WalReplay {
  bool exists = false;
  std::vector<WalReplayRecord> records;
  uint64_t valid_bytes = 0;
  bool tail_torn = false;
};

/// Reads and CRC-verifies the WAL at `path`, stopping at the first torn
/// frame. The caller filters by epoch and truncates the tail.
WalReplay ReadWal(const std::string& path);

}  // namespace camal::engine::fileio

#endif  // CAMAL_ENGINE_WAL_H_
