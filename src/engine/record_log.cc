#include "engine/record_log.h"

#include <cstdio>
#include <cstring>

#include "util/crc32c.h"

namespace camal::engine::fileio {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 masked CRC.

// A single frame never legitimately approaches this: the largest payloads
// are manifest snapshots of a shard (fences + Bloom words), low megabytes
// at most. Anything bigger is a corrupt length field.
constexpr uint32_t kMaxPayloadBytes = 256u << 20;

}  // namespace

RecordWriter::RecordWriter(FileOps* ops, std::string path)
    : ops_(ops), path_(std::move(path)) {
  fd_ = ops_->Open(path_, O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  SysCheck(fd_ >= 0, "open", path_);
  struct stat st;
  SysCheck(::fstat(fd_, &st) == 0, "fstat", path_);
  offset_ = static_cast<uint64_t>(st.st_size);
}

RecordWriter::~RecordWriter() {
  if (fd_ >= 0) ops_->Close(fd_);
}

void RecordWriter::Append(const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = util::MaskedCrc32c(payload.data(), payload.size());
  pending_.append(reinterpret_cast<const char*>(&len), sizeof(len));
  pending_.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  pending_.append(payload);
  ++appended_;
}

void RecordWriter::Commit() {
  if (pending_.empty()) return;
  const int64_t n =
      ops_->PWrite(fd_, pending_.data(), pending_.size(), offset_);
  SysCheck(n == static_cast<int64_t>(pending_.size()), "pwrite", path_);
  offset_ += pending_.size();
  pending_.clear();
}

void RecordWriter::Sync() { SysCheck(ops_->Fsync(fd_) == 0, "fsync", path_); }

void RecordWriter::Reset() {
  pending_.clear();
  SysCheck(ops_->Ftruncate(fd_, 0) == 0, "ftruncate", path_);
  offset_ = 0;
}

void RecordWriter::TruncateTo(uint64_t offset) {
  SysCheck(ops_->Ftruncate(fd_, offset) == 0, "ftruncate", path_);
  offset_ = offset;
}

bool InstallRecordFile(FileOps* ops, const std::string& path,
                       const std::vector<std::string>& payloads, bool sync) {
  const std::string tmp = path + ".tmp";
  // A stale tmp from an earlier crashed install would otherwise make the
  // fresh writer append after its leftovers.
  ops->Unlink(tmp);
  {
    RecordWriter writer(ops, tmp);
    for (const std::string& payload : payloads) writer.Append(payload);
    writer.Commit();
    if (sync) writer.Sync();  // the file must be complete before it is named
  }
  if (ops->Rename(tmp, path) == 0) return true;
  ops->Unlink(tmp);
  return false;
}

RecordFileContents ReadRecordFile(const std::string& path) {
  RecordFileContents out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;  // exists = false
  out.exists = true;

  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);

  size_t pos = 0;
  while (pos + kFrameHeaderBytes <= bytes.size()) {
    uint32_t len, crc;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    std::memcpy(&crc, bytes.data() + pos + sizeof(len), sizeof(crc));
    if (len > kMaxPayloadBytes ||
        pos + kFrameHeaderBytes + len > bytes.size()) {
      break;  // short frame / absurd length: torn tail starts here
    }
    const char* payload = bytes.data() + pos + kFrameHeaderBytes;
    if (util::MaskedCrc32c(payload, len) != crc) break;
    out.records.emplace_back(payload, len);
    pos += kFrameHeaderBytes + len;
    out.valid_bytes = pos;
  }
  out.torn_tail = out.valid_bytes != bytes.size();
  return out;
}

}  // namespace camal::engine::fileio
