#include "camal/evaluator.h"

#include <algorithm>
#include <memory>

#include "engine/file_engine.h"
#include "engine/sharded_engine.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace camal::tune {

using util::HashCombine;

namespace {

/// Maps the setup-level read-submission knob to the engine's enum.
engine::IoMode ToIoMode(FileIoMode m) {
  switch (m) {
    case FileIoMode::kPread:
      return engine::IoMode::kPread;
    case FileIoMode::kUring:
      return engine::IoMode::kUring;
    case FileIoMode::kAuto:
      return engine::IoMode::kAuto;
  }
  return engine::IoMode::kAuto;
}

}  // namespace

Evaluator::Evaluator(const SystemSetup& setup) : setup_(setup) {
  ValidateOrDie(setup_);
  // A pool only pays off when there are shards to fan across: with one
  // shard every ExecuteOps batch is a single sub-list and runs inline.
  if (setup_.engine_threads != 1 && setup_.num_shards > 1) {
    engine_pool_ = std::make_shared<util::ThreadPool>(setup_.engine_threads);
  }
}

Measurement Evaluator::Measure(const model::WorkloadSpec& workload,
                               const TuningConfig& config, size_t num_ops,
                               uint64_t salt) const {
  // The dataset itself is fixed per setup (same keys for every sample).
  workload::KeySpace keys(setup_.num_entries, setup_.seed);
  std::unique_ptr<engine::StorageEngine> owned;
  if (setup_.backend == EngineBackend::kFile) {
    // Real-IO backend: a unique file set per measurement (concurrent
    // MakeSamples measurements must never share a directory).
    engine::FileEngineConfig fcfg;
    const std::string base =
        setup_.file_workdir.empty()
            ? std::string()
            : setup_.file_workdir + "/m_" +
                  std::to_string(engine::FileEngine::NextUniqueId());
    fcfg.workdir = base;
    fcfg.io_mode = ToIoMode(setup_.io_mode);
    fcfg.io_queue_depth = static_cast<uint32_t>(
        std::max(1, setup_.io_queue_depth));
    auto fe = std::make_unique<engine::FileEngine>(
        setup_.num_shards, config.ToOptions(setup_), fcfg);
    fe->set_pool(engine_pool_.get());
    owned = std::move(fe);
  } else {
    // One shard is bit-identical to driving the tree directly: shard 0
    // wraps a single tree over a device with exactly this config.
    auto se = std::make_unique<engine::ShardedEngine>(
        setup_.num_shards, config.ToOptions(setup_),
        setup_.MakeDeviceConfig(salt));
    se->set_pool(engine_pool_.get());
    owned = std::move(se);
  }
  engine::StorageEngine& eng = *owned;
  workload::BulkLoad(&eng, keys);
  // Phase-randomizing warmup: a salt-dependent burst of updates so each
  // measurement samples a different compaction-fullness phase. Without it,
  // every run would observe the single deterministic post-load phase, and
  // that phase (not the steady state) would dominate the learned landscape.
  {
    util::Random warm_rng(HashCombine(setup_.seed * 17, salt + 3));
    const auto extra = static_cast<uint64_t>(
        0.3 * static_cast<double>(setup_.num_entries) * warm_rng.NextDouble());
    for (uint64_t i = 0; i < extra; ++i) {
      eng.Put(keys.KeyAt(warm_rng.Uniform(keys.num_keys())), i);
    }
  }
  const double build_ns = eng.CostSnapshot().elapsed_ns;
  // Residual attribution starts clean: the op-cost profiler should see
  // the measured query phase only, not ingest/warmup traffic.
  eng.ResetOpCostWindows();

  workload::ExecutorConfig exec;
  exec.num_ops = num_ops;
  exec.generator.scan_len = setup_.scan_len;
  exec.generator.insert_new_keys = false;
  // Tenant-skewed traffic (inert at shard_skew == 0: the generator then
  // draws exactly the historical stream).
  exec.generator.shard_skew = setup_.shard_skew;
  exec.generator.num_shards = eng.NumShards();
  exec.seed = HashCombine(setup_.seed * 31, salt + 1);
  const workload::ExecutionResult result =
      workload::Execute(&eng, workload, exec, &keys);

  Measurement m;
  m.build_ns = build_ns;
  m.mean_latency_ns = result.MeanLatencyNs();
  m.p90_latency_ns = result.latency_ns.Quantile(0.9);
  m.p99_latency_ns = result.latency_ns.Quantile(0.99);
  m.ios_per_op = result.IosPerOp();
  m.run_ns = result.total_ns;
  // Per-channel measured-vs-predicted residuals: the closed-form model's
  // expectation at this (workload, config) against the engine's profiler
  // windows over the query phase just served. Predictions use the
  // system-total scale — on a multi-shard engine this is the model's
  // whole-system view of the same approximation the tuners price with.
  {
    const model::CostModel cm(setup_.ToModelParams());
    const model::ModelConfig mc = config.ToModelConfig();
    const model::WorkloadSpec wn = workload.Normalized();
    const double point_weight = wn.v + wn.r;
    m.point_ios_predicted =
        point_weight <= 0.0
            ? 0.0
            : (wn.v * cm.ZeroResultLookupCost(mc) +
               wn.r * cm.NonZeroResultLookupCost(mc)) /
                  point_weight;
    m.range_ios_predicted = cm.RangeLookupCost(mc);
    m.write_ios_predicted = cm.WriteCost(mc);

    const engine::OpCostWindow points =
        eng.OpCostWindowTotal(engine::OpKind::kGet);
    engine::OpCostWindow writes = eng.OpCostWindowTotal(engine::OpKind::kPut);
    writes += eng.OpCostWindowTotal(engine::OpKind::kDelete);
    const engine::OpCostWindow ranges =
        eng.OpCostWindowTotal(engine::OpKind::kScan);
    if (points.ops > 0) {
      m.point_ios_measured = points.IosPerOp();
      m.point_ios_residual = m.point_ios_measured - m.point_ios_predicted;
    }
    if (ranges.ops > 0) {
      m.range_ios_measured = ranges.IosPerOp();
      m.range_ios_residual = m.range_ios_measured - m.range_ios_predicted;
    }
    if (writes.ops > 0) {
      m.write_ios_measured = writes.IosPerOp();
      m.write_ios_residual = m.write_ios_measured - m.write_ios_predicted;
    }
  }
  m.total_cost_ns = build_ns + m.run_ns;
  return m;
}

Sample Evaluator::MakeSample(const model::WorkloadSpec& workload,
                             const TuningConfig& config, uint64_t salt) const {
  // Average two compaction-fullness phases per sample so the label
  // estimates the steady state (the paper's single long run does the same
  // by sheer query count). Both runs are paid for in the sample cost.
  const Measurement a = Measure(workload, config, setup_.train_ops, salt);
  const Measurement b =
      Measure(workload, config, setup_.train_ops, HashCombine(salt, 0xb0b));
  Sample sample;
  sample.workload = workload;
  sample.config = config;
  sample.sys = setup_.ToModelParams();
  sample.mean_latency_ns = (a.mean_latency_ns + b.mean_latency_ns) / 2.0;
  sample.p90_latency_ns = (a.p90_latency_ns + b.p90_latency_ns) / 2.0;
  sample.ios_per_op = (a.ios_per_op + b.ios_per_op) / 2.0;
  sample.cost_ns = a.total_cost_ns + b.total_cost_ns;
  return sample;
}

Measurement Evaluator::Evaluate(const model::WorkloadSpec& workload,
                                const TuningConfig& config,
                                uint64_t salt) const {
  return Measure(workload, config, setup_.eval_ops, HashCombine(salt, 777));
}

std::vector<Sample> Evaluator::MakeSamples(
    const model::WorkloadSpec& workload,
    const std::vector<TuningConfig>& configs, uint64_t first_salt,
    util::ThreadPool* pool) const {
  std::vector<Sample> out(configs.size());
  util::ParallelFor(pool, 0, configs.size(), [&](size_t i) {
    out[i] = MakeSample(workload, configs[i],
                        first_salt + static_cast<uint64_t>(i));
  });
  return out;
}

std::vector<Measurement> Evaluator::EvaluateBatch(
    const std::vector<EvalJob>& jobs, util::ThreadPool* pool) const {
  std::vector<Measurement> out(jobs.size());
  util::ParallelFor(pool, 0, jobs.size(), [&](size_t i) {
    out[i] = Evaluate(jobs[i].workload, jobs[i].config, jobs[i].salt);
  });
  return out;
}

}  // namespace camal::tune
