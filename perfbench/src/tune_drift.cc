// tune-drift: the paper's learning loop, end to end.
//
// CamalTuner (gradient-boosted trees, x10 extrapolation) trains
// on the 15 Table-1 workloads for a four-shard system with tenant skew.
// Its picks for a fixed held-out subset of the Table-2 mixes are evaluated
// next to the Monkey default. A DynamicTuner with a MemoryArbiter and
// online racing then drives one growing four-shard simulated engine
// through all 24 Table-2 phases; that dynamic phase is the measured one.
// The dynamic phase is repeated on a fresh engine after each set-up, so a
// run measures it several times per (expensive) training. Everything but
// wall time is a pure function of the seed.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "camal/camal_tuner.h"
#include "camal/classic_tuner.h"
#include "camal/dynamic_tuner.h"
#include "camal/evaluator.h"
#include "camal/memory_arbiter.h"
#include "camal/sample.h"
#include "common.h"
#include "engine/sharded_engine.h"
#include "model/cost_model.h"
#include "util/random.h"
#include "workload/executor.h"
#include "workload/tables.h"

namespace perfbench {

namespace {

constexpr size_t kShards = 4;
constexpr double kTenantSkew = 0.8;
constexpr double kExtrapolation = 10.0;
constexpr size_t kOpsPerPhase = 60000;
/// Dynamic phases measured per set-up, each on a fresh engine.
constexpr int kDynamicRuns = 4;
/// Table-2 phases (0-based) whose mixes the picks are evaluated on.
constexpr size_t kHeldOut[] = {1, 5, 9, 13, 17, 21};
/// Every k-th training sample is replayed to time one sample.
constexpr size_t kSampleReplayStride = 8;
constexpr int kFitReplays = 3;

camal::tune::SystemSetup MakeSetup(uint64_t seed) {
  camal::tune::SystemSetup setup;
  setup.num_shards = kShards;
  setup.shard_skew = kTenantSkew;
  setup.seed = seed;
  return setup;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Mean latency (us) of the 24 phases served by a statically configured
/// engine — the baseline the dynamic run is compared with.
double StaticBaselineLatencyUs(const camal::tune::SystemSetup& setup,
                               const camal::tune::TuningConfig& config,
                               uint64_t key_seed, uint64_t seed,
                               Tracer* tracer) {
  camal::workload::KeySpace keys(setup.num_entries, key_seed);
  camal::engine::ShardedEngine eng(kShards, config.ToOptions(setup),
                                   setup.MakeDeviceConfig());
  camal::workload::BulkLoad(&eng, keys);
  const auto phases = camal::workload::ShiftingWorkloads();
  double total_ns = 0.0;
  double ops = 0.0;
  for (size_t i = 0; i < phases.size(); ++i) {
    camal::workload::ExecutorConfig exec;
    exec.num_ops = kOpsPerPhase;
    exec.generator.scan_len = setup.scan_len;
    exec.generator.insert_new_keys = true;
    exec.generator.shard_skew = kTenantSkew;
    exec.generator.num_shards = kShards;
    exec.seed = camal::util::HashCombine(seed, i + 1);
    ScopedSpan span(tracer, SpanName::kExecute, i);
    const auto r = camal::workload::Execute(&eng, phases[i], exec, &keys);
    total_ns += r.total_ns;
    ops += static_cast<double>(r.num_ops);
  }
  return PerOp(total_ns, ops) / 1e3;
}

/// What one dynamic phase (24 Table-2 phases on a fresh engine) measured.
struct DynamicRun {
  /// Engine build and bulk load, before the first measured op.
  double build_s = 0.0;
  double measured_s = 0.0;
  uint64_t ops = 0;
  /// Ops that came back without a result.
  uint64_t missing = 0;
  Metrics exact;
  Metrics timing;
  Metrics props;
};

DynamicRun RunDynamic(const RepConfig& cfg,
                      const camal::tune::SystemSetup& setup,
                      const camal::tune::CamalTuner& tuner) {
  DynamicRun run;
  Tracer* tracer = cfg.tracer;
  const auto phases = camal::workload::ShiftingWorkloads();
  const int64_t build_start = WallNs();
  camal::workload::KeySpace keys(setup.num_entries,
                                 camal::util::HashCombine(cfg.seed, 11));
  const camal::lsm::Options start_options =
      camal::tune::MonkeyDefaultConfig(setup).ToOptions(setup);
  camal::engine::ShardedEngine sharded(kShards, start_options,
                                       setup.MakeDeviceConfig());
  std::unique_ptr<TracedEngine> traced;
  camal::engine::StorageEngine* engine = &sharded;
  if (!cfg.raw_engine) {
    traced = std::make_unique<TracedEngine>(&sharded, tracer, true);
    engine = traced.get();
  }
  uint64_t value = 1;
  for (uint64_t key : keys.keys()) {
    camal::lsm::LsmTree* tree = sharded.shard(sharded.ShardIndex(key));
    ScopedSpan put(tracer, SpanName::kTreePut);
    tree->Put(key, value++);
  }
  run.build_s = SecondsSince(build_start);

  camal::tune::DynamicTuner::Params params;
  params.window_ops = 1000;
  params.tau = 0.10;
  camal::tune::DynamicTuner dynamic(
      [&tuner, tracer](const camal::model::WorkloadSpec& w,
                       const camal::model::SystemParams& target) {
        ScopedSpan span(tracer, SpanName::kRecommend);
        return tuner.RecommendFor(w, target);
      },
      setup, params);
  camal::tune::MemoryArbiter arbiter(setup, start_options, kShards,
                                     camal::tune::ArbiterOptions{});
  dynamic.set_arbiter(&arbiter);
  camal::tune::RacingOptions racing;
  racing.enabled = true;
  dynamic.set_racing(racing);

  const camal::engine::EngineCounters counters0 = engine->AggregateCounters();
  const camal::sim::DeviceSnapshot cost0 = engine->CostSnapshot();
  const uint64_t entries_start = engine->TotalEntries();
  const size_t first_span = tracer != nullptr ? tracer->spans().size() : 0;

  double total_ns = 0.0;
  uint64_t total_ios = 0;
  uint64_t found = 0;
  double phase_mean_sum = 0.0;
  const int64_t measured_start = WallNs();
  {
    ScopedSpan measured(tracer, SpanName::kMeasured);
    for (size_t i = 0; i < phases.size(); ++i) {
      dynamic.set_phase_shard_skew(kTenantSkew);
      ScopedSpan span(tracer, SpanName::kRunPhase, i);
      const camal::workload::ExecutionResult r = dynamic.RunPhase(
          engine, &keys, phases[i], kOpsPerPhase,
          camal::util::HashCombine(cfg.seed, i + 1));
      total_ns += r.total_ns;
      total_ios += r.total_ios;
      run.ops += r.num_ops;
      found += r.lookups_found;
      phase_mean_sum += r.MeanLatencyNs();
    }
  }
  run.measured_s = SecondsSince(measured_start);
  // Every generated op must come back with a result, and the wrapper must
  // have seen each one.
  const uint64_t expected = kOpsPerPhase * phases.size();
  run.missing = expected - std::min<uint64_t>(expected, run.ops);
  if (traced != nullptr && traced->exec_ops() != run.ops) run.missing += 1;

  const camal::engine::EngineCounters counters1 = engine->AggregateCounters();
  const camal::sim::DeviceSnapshot cost1 = engine->CostSnapshot();
  const auto ops = static_cast<double>(run.ops);
  Metrics& x = run.exact;
  x["ios_per_op"] = PerOp(static_cast<double>(total_ios), ops);
  x["camal.dynamic_mean_lat_us"] = PerOp(total_ns, ops) / 1e3;
  x["camal.phase_mean_lat_sum_us"] = phase_mean_sum / 1e3;
  x["camal.lookups_found"] = static_cast<double>(found);
  x["camal.reconfigurations"] = static_cast<double>(dynamic.reconfigurations());
  x["camal.races_started"] = static_cast<double>(dynamic.races_started());
  x["camal.race_switches"] = static_cast<double>(dynamic.race_switches());
  x["camal.arbiter_rounds"] = static_cast<double>(arbiter.rounds());
  x["camal.arbiter_moves"] = static_cast<double>(arbiter.moves());
  x["lsm.flushes_per_kop"] =
      PerKop(static_cast<double>(counters1.flushes - counters0.flushes), ops);
  x["lsm.merges_per_kop"] =
      PerKop(static_cast<double>(counters1.merges - counters0.merges), ops);
  x["lsm.compaction_ios_per_op"] = PerOp(
      static_cast<double>(counters1.compaction_block_reads +
                          counters1.compaction_block_writes -
                          counters0.compaction_block_reads -
                          counters0.compaction_block_writes),
      ops);
  x["lsm.transition_ios_per_op"] = PerOp(
      static_cast<double>(counters1.transition_ios - counters0.transition_ios),
      ops);
  x["sim.read_blocks_per_op"] =
      PerOp(static_cast<double>(cost1.block_reads - cost0.block_reads), ops);
  x["sim.write_blocks_per_op"] =
      PerOp(static_cast<double>(cost1.block_writes - cost0.block_writes), ops);
  AddOpKindWindows(*engine, &x, &x);
  if (traced != nullptr) {
    x["lat_p50_us"] = Quantile(traced->latencies_ns(), 0.50) / 1e3;
    x["lat_p99_us"] = Quantile(traced->latencies_ns(), 0.99) / 1e3;
  }

  Metrics& p = run.props;
  double shares[3] = {0.0, 0.0, 0.0};
  for (const auto& w : phases) {
    const auto n = w.Normalized();
    shares[0] += n.v + n.r;
    shares[1] += n.w;
    shares[2] += n.q;
  }
  p["share.get"] = shares[0] / static_cast<double>(phases.size());
  p["share.put"] = shares[1] / static_cast<double>(phases.size());
  p["share.scan"] = shares[2] / static_cast<double>(phases.size());
  p["tenant_skew"] = kTenantSkew;
  p["key_skew"] = phases.front().skew;
  p["live_keys_start"] = static_cast<double>(setup.num_entries);
  p["live_keys_end"] = static_cast<double>(keys.num_keys());
  p["stored_entries_start"] = static_cast<double>(entries_start);
  p["stored_entries_end"] = static_cast<double>(engine->TotalEntries());
  p["data_bytes"] = static_cast<double>(entries_start * setup.entry_bytes);
  p["cache_bytes"] = static_cast<double>(start_options.block_cache_bytes);

  if (tracer != nullptr) {
    const std::vector<SpanTotals> t =
        tracer->TotalsByName(first_span, tracer->spans().size());
    const auto total = [&t](SpanName name) {
      return t[static_cast<size_t>(name)].total_ns;
    };
    run.timing["camal.phase_self_ns"] =
        PerOp(t[static_cast<size_t>(SpanName::kRunPhase)].self_ns, ops);
    run.timing["engine.exec_ns"] = PerOp(total(SpanName::kExecuteOps), ops);
    run.timing["engine.reconfigure_ms"] =
        (total(SpanName::kReconfigureShard) + total(SpanName::kReconfigure)) /
        1e6;
  }
  return run;
}

}  // namespace

RepResult RunTuneDrift(const RepConfig& cfg) {
  RepResult out;
  Tracer* tracer = cfg.tracer;
  const int64_t rep_start = WallNs();
  ScopedSpan rep_span(tracer, SpanName::kRep, cfg.seed);

  const camal::tune::SystemSetup setup = MakeSetup(cfg.seed);
  camal::tune::ValidateOrDie(setup);
  const auto training = camal::workload::TrainingWorkloads();
  const auto phases = camal::workload::ShiftingWorkloads();
  Metrics& x = out.exact;

  camal::tune::TunerOptions options;
  options.model_kind = camal::tune::ModelKind::kTrees;
  options.extrapolation_factor = kExtrapolation;
  options.threads = 1;  // sample inline, like every engine here
  options.seed = camal::util::HashCombine(cfg.seed, 7);
  camal::tune::CamalTuner tuner(setup, options);

  {
    ScopedSpan setup_span(tracer, SpanName::kSetup);
    const int64_t train_start = WallNs();
    {
      ScopedSpan span(tracer, SpanName::kTrain);
      tuner.Train(training);
    }
    out.timing["camal.tune_s"] = SecondsSince(train_start);
    x["camal.sample_cost_s"] = tuner.sampling_cost_ns() / 1e9;
    x["camal.samples"] = static_cast<double>(tuner.samples().size());

    // Evaluate the picks for the held-out mixes next to the Monkey default.
    camal::tune::Evaluator evaluator(setup);
    const camal::tune::TuningConfig monkey =
        camal::tune::MonkeyDefaultConfig(setup);
    const camal::model::CostModel cost_model(setup.ToModelParams());
    std::vector<camal::tune::EvalJob> jobs;
    double predicted = 0.0;
    for (size_t h = 0; h < sizeof(kHeldOut) / sizeof(kHeldOut[0]); ++h) {
      const camal::model::WorkloadSpec& w = phases[kHeldOut[h]];
      camal::tune::TuningConfig pick;
      {
        ScopedSpan span(tracer, SpanName::kRecommend, h);
        pick = tuner.Recommend(w);
      }
      {
        ScopedSpan span(tracer, SpanName::kModelCost, h);
        predicted += cost_model.OpCost(w, pick.ToModelConfig());
      }
      jobs.push_back(camal::tune::EvalJob{w, pick, h});
      jobs.push_back(camal::tune::EvalJob{w, monkey, h});
    }
    std::vector<camal::tune::Measurement> measured;
    {
      ScopedSpan span(tracer, SpanName::kEvaluate);
      measured = evaluator.EvaluateBatch(jobs);
    }
    std::vector<double> tuned_lat, default_lat, point_res, range_res, write_res;
    for (size_t j = 0; j < measured.size(); j += 2) {
      tuned_lat.push_back(measured[j].mean_latency_ns / 1e3);
      default_lat.push_back(measured[j + 1].mean_latency_ns / 1e3);
      point_res.push_back(measured[j].point_ios_residual);
      range_res.push_back(measured[j].range_ios_residual);
      write_res.push_back(measured[j].write_ios_residual);
    }
    x["camal.tuned_lat_us"] = Mean(tuned_lat);
    x["model.default_lat_us"] = Mean(default_lat);
    x["model.point_ios_residual"] = Mean(point_res);
    x["model.range_ios_residual"] = Mean(range_res);
    x["model.write_ios_residual"] = Mean(write_res);
    x["model.predicted_ios"] = predicted / static_cast<double>(tuned_lat.size());
  }
  const double tuning_s = SecondsSince(rep_start);

  // The dynamic phase, repeated on fresh engines: every repetition has the
  // same inputs, so its exact values must agree with the first.
  for (int k = 0; k < kDynamicRuns; ++k) {
    out.calibration_ms.push_back(CalibrationMs());
    DynamicRun run = RunDynamic(cfg, setup, tuner);
    out.ops_per_s.push_back(PerOp(static_cast<double>(run.ops), run.measured_s));
    out.calibration_ms.push_back(CalibrationMs());
    out.attempted += kOpsPerPhase * phases.size();
    out.failed += run.missing;
    if (k == 0) {
      out.setup_s = tuning_s + run.build_s;
      x.insert(run.exact.begin(), run.exact.end());
      out.props = run.props;
      out.timing.insert(run.timing.begin(), run.timing.end());
    } else {
      for (const auto& [name, value] : run.exact) {
        if (x.at(name) != value) {
          out.problems.push_back("dynamic run " + std::to_string(k) + ": " +
                                 name + " differs from the first run");
        }
      }
    }
  }
  x["fail_frac"] = PerOp(static_cast<double>(out.failed),
                         static_cast<double>(out.attempted));

  if (tracer != nullptr) {
    const std::vector<SpanTotals> all = tracer->TotalsByName();
    const auto& rec = all[static_cast<size_t>(SpanName::kRecommend)];
    out.timing["camal.recommend_ms"] = PerOp(rec.total_ns, rec.calls) / 1e6;

    // Replay a subset of the tuner's samples to time one sample, and the
    // model fit on all of them.
    const camal::tune::Evaluator train_eval(tuner.train_setup());
    std::vector<double> sample_ms;
    const auto& samples = tuner.samples();
    for (size_t i = 0; i < samples.size(); i += kSampleReplayStride) {
      const int64_t t0 = WallNs();
      ScopedSpan span(tracer, SpanName::kMakeSample, i);
      train_eval.MakeSample(samples[i].workload, samples[i].config, i);
      sample_ms.push_back(static_cast<double>(WallNs() - t0) / 1e6);
    }
    out.timing["camal.sample_ms"] = Median(sample_ms);
    std::vector<std::vector<double>> fx;
    std::vector<double> fy;
    for (const camal::tune::Sample& s : samples) {
      fx.push_back(camal::tune::RawFeatures(s.workload, s.config, s.sys));
      fy.push_back(s.mean_latency_ns / 1000.0);
    }
    std::vector<double> fit_ms;
    for (int r = 0; r < kFitReplays; ++r) {
      auto model = camal::tune::MakeModel(options.model_kind, options.seed);
      const int64_t t0 = WallNs();
      ScopedSpan span(tracer, SpanName::kFit, r);
      model->Fit(fx, fy);
      fit_ms.push_back(static_cast<double>(WallNs() - t0) / 1e6);
    }
    out.timing["ml.fit_ms"] = Median(fit_ms);

    // Static Classic, configured once for the average Table-2 mix.
    camal::tune::ClassicTuner classic(setup, camal::tune::TunerOptions{});
    const camal::model::WorkloadSpec average{0.25, 0.25, 0.25, 0.25};
    x["model.static_classic_lat_us"] = StaticBaselineLatencyUs(
        setup, classic.Recommend(average),
        camal::util::HashCombine(cfg.seed, 11), cfg.seed, tracer);
  }
  return out;
}

}  // namespace perfbench
