#include "common.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "util/stats.h"

namespace perfbench {

using camal::engine::Op;
using camal::engine::OpKind;
using camal::engine::OpResult;

Oracle::Oracle(const std::vector<uint64_t>& initial_keys) {
  for (uint64_t key : initial_keys) live_.emplace(key, 0);
}

bool Oracle::Apply(const Op& op, const OpResult& result) {
  bool ok = true;
  switch (op.kind) {
    case OpKind::kPut:
      live_[op.key] = op.value;
      break;
    case OpKind::kDelete:
      live_.erase(op.key);
      break;
    case OpKind::kGet:
      ++checked_;
      ok = result.found == (live_.count(op.key) != 0);
      break;
    case OpKind::kScan: {
      ++checked_;
      size_t expected = 0;
      for (auto it = live_.lower_bound(op.key);
           it != live_.end() && expected < op.scan_len; ++it) {
        ++expected;
      }
      ok = result.scan_hits == expected;
      break;
    }
  }
  if (!ok) ++mismatches_;
  return ok;
}

namespace {
// Written by CalibrationMs() so that its work cannot be optimised away.
volatile uint64_t calibration_sink = 0;
}  // namespace

double CalibrationMs() {
  // Sized to stay in a core's own caches, like the workloads' hot data:
  // a mix that spills to the shared cache slows more than they do when
  // the host is busy.
  constexpr int kPasses = 3;
  constexpr int kRounds = 5;
  constexpr int kInserts = 8192;
  constexpr int kLookups = 30000;
  constexpr uint64_t kKeyRange = 65536;
  constexpr size_t kSortLen = 32768;
  std::vector<double> ms;
  uint64_t sink = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const int64_t start = WallNs();
    uint64_t x = 88172645463325252ULL;  // xorshift64: same work every pass
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int round = 0; round < kRounds; ++round) {
      std::map<uint64_t, uint64_t> ordered;
      for (int i = 0; i < kInserts; ++i) ordered[next() % kKeyRange] = i;
      for (int i = 0; i < kLookups; ++i) {
        const auto it = ordered.lower_bound(next() % kKeyRange);
        if (it != ordered.end()) sink += it->second;
      }
      std::unordered_map<uint64_t, uint64_t> hashed;
      for (int i = 0; i < kInserts; ++i) hashed[next() % kKeyRange] = i;
      for (int i = 0; i < kLookups; ++i) {
        const auto it = hashed.find(next() % kKeyRange);
        if (it != hashed.end()) sink += it->second;
      }
      std::vector<uint64_t> keys(kSortLen);
      for (uint64_t& k : keys) k = next();
      std::sort(keys.begin(), keys.end());
      for (int i = 0; i < kLookups; ++i) {
        sink += static_cast<uint64_t>(
            std::lower_bound(keys.begin(), keys.end(), next()) - keys.begin());
      }
    }
    ms.push_back(static_cast<double>(WallNs() - start) / 1e6);
  }
  calibration_sink = sink;
  std::sort(ms.begin(), ms.end());
  return ms[kPasses / 2];
}

double Quantile(std::vector<double> values, double q) {
  camal::util::PercentileSketch sketch;
  for (double v : values) sketch.Add(v);
  return sketch.Quantile(q);
}

void AddOpKindWindows(const camal::engine::StorageEngine& engine,
                      Metrics* ios_out, Metrics* lat_out) {
  const auto get = engine.OpCostWindowTotal(OpKind::kGet);
  auto put = engine.OpCostWindowTotal(OpKind::kPut);
  put += engine.OpCostWindowTotal(OpKind::kDelete);
  const auto scan = engine.OpCostWindowTotal(OpKind::kScan);
  (*ios_out)["engine.get_ios"] = get.IosPerOp();
  (*ios_out)["engine.put_ios"] = put.IosPerOp();
  (*ios_out)["engine.scan_ios"] = scan.IosPerOp();
  (*lat_out)["engine.get_lat_us"] = get.LatencyPerOp() / 1e3;
  (*lat_out)["engine.put_lat_us"] = put.LatencyPerOp() / 1e3;
  (*lat_out)["engine.scan_lat_us"] = scan.LatencyPerOp() / 1e3;
}

void AddLayerSelfTimes(const Tracer& tracer, Metrics* out) {
  const std::vector<double> self = tracer.SelfNsByLayer();
  for (size_t l = 0; l < self.size(); ++l) {
    (*out)[std::string("self.") + LayerName(static_cast<Layer>(l)) + "_ms"] =
        self[l] / 1e6;
  }
}

}  // namespace perfbench
