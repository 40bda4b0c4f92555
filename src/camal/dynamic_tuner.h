#ifndef CAMAL_CAMAL_DYNAMIC_TUNER_H_
#define CAMAL_CAMAL_DYNAMIC_TUNER_H_

#include <functional>
#include <map>
#include <vector>

#include "camal/sample.h"
#include "engine/storage_engine.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/shift_detector.h"

namespace camal::tune {

class MemoryArbiter;

/// Produces a configuration for an (estimated) workload at a target system
/// scale. Model-backed tuners bind `ModelBackedTuner::RecommendFor`.
using RecommendFn = std::function<TuningConfig(const model::WorkloadSpec&,
                                               const model::SystemParams&)>;

/// Knobs of online configuration racing (timed-window candidate racing
/// with hysteresis). Racing replaces "trust the model's pick" with
/// "measure the model's pick against the incumbent on live traffic":
/// when a shard's detector fires, the tuner races a small candidate set
/// through measured windows of the shard's own operation stream and
/// hot-swaps to the observed winner — only if it beats the incumbent by
/// a sustained margin.
struct RacingOptions {
  /// Off (the default) is the exact pre-racing dynamic tuner: detector
  /// fires apply the recommendation immediately.
  bool enabled = false;
  /// Maximum candidates raced per shard: the incumbent, the model's
  /// recommendation, and a shape perturbation of it (deduplicated, so a
  /// race may hold fewer).
  int candidates = 3;
  /// Measured operations each candidate serves per window — the race's
  /// minimum-window floor. Windows are cut on the shard's *measured* op
  /// count (engine op-cost profiler), so idle shards never advance.
  size_t window_ops = 512;
  /// Full rotations through the candidate set before settling (each
  /// candidate accumulates this many windows of measurement).
  int min_rounds = 2;
  /// Hysteresis: a challenger must beat the incumbent's measured ios/op
  /// by at least this fraction to be adopted; anything less settles back
  /// to the incumbent (switching has a cost, flapping has a bigger one).
  double min_improvement = 0.05;
};

/// \brief Dynamic system mode (Section 6): drives a live storage engine
/// through a changing operation stream, detecting workload shifts with
/// (p, tau) threshold detectors and lazily reconfiguring.
///
/// **Contract.** Because the stream keeps inserting new entries, the data
/// grows; the target scale passed to the recommender grows accordingly
/// (extrapolation strategy). The tuner is shard-aware: it keeps one
/// `ShiftDetector` per engine shard and retunes each shard independently,
/// from its *local* operation mix at its *local* data scale, through
/// `StorageEngine::ReconfigureShard`. On a single-shard engine (a 1-shard
/// `ShardedEngine`, bit-identical to one tree) this degenerates to exactly
/// the original one-detector, whole-tree behavior. The tuner targets the
/// abstract `StorageEngine` surface only, so it drives the simulated and
/// the real-IO backend identically.
///
/// **Thread-safety.** Externally synchronized; `RunPhase` owns the engine
/// for its duration (engine-internal shard fan-out still applies).
///
/// **Determinism.** Batches are cut exactly at detector firings, so
/// retunes land at the op where op-at-a-time serving would place them;
/// on the simulated backend a phase is bit-reproducible at any engine
/// thread count. Detector decisions depend only on the op stream, so
/// reconfiguration points are deterministic on every backend.
class DynamicTuner {
 public:
  struct Params {
    /// Detector window p, in operations (per shard).
    size_t window_ops = 1000;
    /// Detector threshold tau on any operation fraction.
    double tau = 0.10;
  };

  DynamicTuner(RecommendFn recommend, const SystemSetup& base_setup,
               const Params& params);

  /// Runs `num_ops` operations of `spec` against `engine` through the
  /// batched `ExecuteOps` pipeline (batches are cut at detector firings so
  /// retunes land at exactly the op they would under op-at-a-time
  /// serving), reconfiguring any shard whose detector fires. Writes insert
  /// new keys so the data set grows across phases.
  workload::ExecutionResult RunPhase(engine::StorageEngine* engine,
                                     workload::KeySpace* keys,
                                     const model::WorkloadSpec& spec,
                                     size_t num_ops, uint64_t seed);

  /// Total reconfigurations across all shards.
  size_t reconfigurations() const;
  const TuningConfig& last_applied() const { return last_applied_; }

  /// Attaches (or detaches, with nullptr) a memory arbiter (not owned;
  /// must outlive its use). With an arbiter attached, arbitration rounds
  /// fire between detector-cut batches, and per-shard retunes price their
  /// recommendations at the shard's *arbitrated* budget instead of the
  /// scaled even share — budget redistribution and shape retuning
  /// compose. Detached (the default) is the exact pre-arbiter behavior.
  void set_arbiter(MemoryArbiter* arbiter) { arbiter_ = arbiter; }
  MemoryArbiter* arbiter() const { return arbiter_; }

  /// Sets the tenant-hotness skew (`SystemSetup::shard_skew`, Zipf over
  /// shard index) the *following* phases generate traffic with — the
  /// dynamic-drift knob: step it between phases to model tenant hotness
  /// drifting over a run. Writing the value already in effect changes
  /// nothing (the phase stream stays bit-identical), so a zero-drift
  /// driver that calls this every phase reproduces the fixed-skew run
  /// exactly.
  void set_phase_shard_skew(double skew) { base_setup_.shard_skew = skew; }
  double phase_shard_skew() const { return base_setup_.shard_skew; }

  /// Enables/configures online config racing. With racing on, a detector
  /// fire on a *materialized* shard starts a race instead of applying the
  /// recommendation directly: the incumbent, the recommendation, and a
  /// perturbed variant rotate through measured windows of the shard's
  /// live traffic, and the shard settles on the measured-ios/op winner
  /// (hysteresis: a challenger needs `min_improvement` over the
  /// incumbent). Cold and hibernated shards never race — a fire on one
  /// applies the recommendation directly, as without racing — and a race
  /// paused by mid-race hibernation simply resumes with the shard's
  /// traffic (windows advance on measured ops only). A fresh fire on a
  /// racing shard abandons the stale race and starts over with fresh
  /// candidates (the shift made its measurements unrepresentative).
  void set_racing(const RacingOptions& racing) { racing_ = racing; }
  const RacingOptions& racing() const { return racing_; }

  /// Racing observability: races started, settles that switched away
  /// from the incumbent, settles the hysteresis held at the incumbent,
  /// and races currently running.
  size_t races_started() const { return races_started_; }
  size_t race_switches() const { return race_switches_; }
  size_t race_holds() const { return race_holds_; }
  size_t active_races() const { return races_.size(); }

 private:
  /// One candidate's accumulated measured windows.
  struct RaceCandidate {
    TuningConfig config;
    uint64_t ops = 0;
    uint64_t ios = 0;
    double latency_ns = 0.0;
  };

  /// A running race on one shard. The baseline fields snapshot the
  /// shard's profiler totals at the current window's start; the window
  /// closes when measured ops advance by `RacingOptions::window_ops`.
  struct ShardRace {
    std::vector<RaceCandidate> candidates;
    size_t incumbent = 0;
    size_t current = 0;
    int rounds = 0;
    uint64_t base_ops = 0;
    uint64_t base_ios = 0;
    double base_latency_ns = 0.0;
  };

  /// Starts (or restarts) a race on shard `s` between the shard's live
  /// incumbent, `recommended`, and a perturbation of it. Degenerate
  /// candidate sets (everything deduplicates to the incumbent) apply
  /// `recommended` directly instead.
  void StartRace(engine::StorageEngine* engine, size_t s,
                 const TuningConfig& recommended);

  /// Advances every running race from the engine's measured op-cost
  /// windows: closes full windows, rotates candidates, settles races
  /// that completed `min_rounds` rotations.
  void AdvanceRaces(engine::StorageEngine* engine);

  /// Applies a race candidate to shard `s`, rescaling its memory to the
  /// shard's arbitrated budget when an arbiter is attached (racing owns
  /// the *shape*, the arbiter owns the budget — the two compose).
  void ApplyRaceConfig(engine::StorageEngine* engine, size_t s,
                       const TuningConfig& c);
  /// Lazily sizes the per-shard detector array to the engine's shard
  /// count (the engine must not change between phases).
  void BindEngine(const engine::StorageEngine& engine);

  /// Retunes shard `s` from its detector's last-window mix at its current
  /// local scale.
  void RetuneShard(engine::StorageEngine* engine, size_t s,
                   const model::WorkloadSpec& stream_spec);

  RecommendFn recommend_;
  SystemSetup base_setup_;
  /// `base_setup_` divided across the bound engine's shards: the scale one
  /// shard serves, used to price shard-local recommendations.
  SystemSetup shard_setup_;
  Params params_;
  std::vector<workload::ShiftDetector> detectors_;
  TuningConfig last_applied_;
  MemoryArbiter* arbiter_ = nullptr;
  RacingOptions racing_;
  /// Running races, keyed by shard (ascending iteration keeps rotation
  /// order deterministic).
  std::map<size_t, ShardRace> races_;
  size_t races_started_ = 0;
  size_t race_switches_ = 0;
  size_t race_holds_ = 0;
};

}  // namespace camal::tune

#endif  // CAMAL_CAMAL_DYNAMIC_TUNER_H_
