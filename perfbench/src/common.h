#ifndef CAMAL_PERFBENCH_COMMON_H_
#define CAMAL_PERFBENCH_COMMON_H_

// Shared types of the end-to-end benchmark: what one repetition of a
// workload reports, and the ordered-map oracle the serving workloads check
// every result against.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/storage_engine.h"
#include "trace.h"

namespace perfbench {

using Metrics = std::map<std::string, double>;

/// How one repetition runs.
struct RepConfig {
  uint64_t seed = 1;
  /// Span recorder; null for an untraced repetition.
  Tracer* tracer = nullptr;
  /// tune-drift only: drive the engine directly instead of through the
  /// forwarding wrapper (the wrapper-parity repetition of a traced run).
  bool raw_engine = false;
};

/// What one repetition of a workload measured.
struct RepResult {
  /// Wall time from the start of the repetition to its first measured op.
  double setup_s = 0.0;
  /// Completed ops per wall second of each measured phase (one per phase;
  /// a workload may measure its phase more than once per set-up).
  std::vector<double> ops_per_s;
  /// `CalibrationMs()` taken just before and just after each measured
  /// phase.
  std::vector<double> calibration_ms;
  /// Requests attempted in the measured phase, and those that failed
  /// (shed, refused, or contradicted by the oracle).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Oracle mismatches alone (any makes the run fail).
  uint64_t mismatches = 0;
  /// Values that are a pure function of the seed: bit-identical between
  /// repetitions, processes, and traced/untraced runs.
  Metrics exact;
  /// Wall-clock values (real latencies, per-layer timings).
  Metrics timing;
  /// Workload-property report (exact).
  Metrics props;
  /// Failed checks other than oracle mismatches.
  std::vector<std::string> problems;
};

/// Ordered-map model of the store: replays executed ops in execution
/// order, checking every Get's found flag and every Scan's hit count.
class Oracle {
 public:
  explicit Oracle(const std::vector<uint64_t>& initial_keys);

  /// Applies (writes) or checks (reads) one executed op; returns false on
  /// a mismatch.
  bool Apply(const camal::engine::Op& op,
             const camal::engine::OpResult& result);

  uint64_t mismatches() const { return mismatches_; }
  uint64_t checked() const { return checked_; }
  size_t live_keys() const { return live_.size(); }

 private:
  std::map<uint64_t, uint64_t> live_;
  uint64_t mismatches_ = 0;
  uint64_t checked_ = 0;
};

/// Wall time (ms) of a fixed mix of standard-library work — ordered-map
/// inserts and lower_bounds, hash-map inserts and finds, a sort and binary
/// searches, all small enough to stay in a core's caches — that uses no
/// library code. The host's speed drifts by a fifth within minutes, and
/// this mix slows with it as the workloads do, so a run's throughput times
/// its calibration is steady where the raw throughput is not. Median of
/// three passes.
double CalibrationMs();

/// Quantile with the library's interpolation (`util::PercentileSketch`).
double Quantile(std::vector<double> values, double q);

RepResult RunSimGateway(const RepConfig& config);
RepResult RunTuneDrift(const RepConfig& config);

/// Seconds elapsed since `start_ns` (a `WallNs()` reading).
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(WallNs() - start_ns) / 1e9;
}

/// Per-kind engine cost windows folded in as engine.{get,put,scan}_ios
/// (into `ios_out`) and engine.{get,put,scan}_lat_us (into `lat_out`);
/// deletes count as puts. Latencies are exact on the simulated backend
/// only, hence the two destinations.
void AddOpKindWindows(const camal::engine::StorageEngine& engine,
                      Metrics* ios_out, Metrics* lat_out);

/// `count` per thousand `ops` (0 when no ops).
inline double PerKop(double count, double ops) {
  return ops <= 0.0 ? 0.0 : 1000.0 * count / ops;
}
inline double PerOp(double count, double ops) {
  return ops <= 0.0 ? 0.0 : count / ops;
}

/// Span totals of a traced repetition folded into `out`: each layer's
/// self time (self.<layer>_ms) plus the per-call figures the workloads
/// ask for by name.
void AddLayerSelfTimes(const Tracer& tracer, Metrics* out);

}  // namespace perfbench

#endif  // CAMAL_PERFBENCH_COMMON_H_
