// Determinism contract of the parallel evaluation engine: every batched
// entry point must produce bit-identical output at 1 thread and N threads.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "camal/bayes_tuner.h"
#include "camal/camal_tuner.h"
#include "camal/evaluator.h"
#include "camal/grid_tuner.h"
#include "camal/plain_al_tuner.h"
#include "engine/sharded_engine.h"
#include "util/thread_pool.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace camal::tune {
namespace {

SystemSetup TinySetup() {
  SystemSetup setup;
  setup.num_entries = 6000;
  setup.total_memory_bits = 16 * 6000;
  setup.train_ops = 400;
  setup.eval_ops = 800;
  return setup;
}

std::vector<TuningConfig> SomeConfigs(const SystemSetup& setup) {
  std::vector<TuningConfig> configs;
  for (double t : {2.0, 4.0, 8.0, 12.0}) {
    for (double bpk : {5.0, 10.0}) {
      TuningConfig c;
      c.size_ratio = t;
      c.mf_bits = bpk * static_cast<double>(setup.num_entries);
      c.mb_bits = static_cast<double>(setup.total_memory_bits) - c.mf_bits;
      configs.push_back(c);
    }
  }
  return configs;
}

void ExpectSamplesIdentical(const std::vector<Sample>& a,
                            const std::vector<Sample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mean_latency_ns, b[i].mean_latency_ns) << "sample " << i;
    EXPECT_EQ(a[i].p90_latency_ns, b[i].p90_latency_ns) << "sample " << i;
    EXPECT_EQ(a[i].ios_per_op, b[i].ios_per_op) << "sample " << i;
    EXPECT_EQ(a[i].cost_ns, b[i].cost_ns) << "sample " << i;
    EXPECT_EQ(a[i].config.size_ratio, b[i].config.size_ratio) << "sample " << i;
    EXPECT_EQ(a[i].config.mf_bits, b[i].config.mf_bits) << "sample " << i;
  }
}

TEST(ParallelEvalTest, MakeSamplesIdenticalSerialVsParallel) {
  const SystemSetup setup = TinySetup();
  const Evaluator evaluator(setup);
  const model::WorkloadSpec w{0.25, 0.25, 0.25, 0.25};
  const std::vector<TuningConfig> configs = SomeConfigs(setup);

  const std::vector<Sample> serial = evaluator.MakeSamples(w, configs, 1);
  util::ThreadPool pool(4);
  const std::vector<Sample> parallel =
      evaluator.MakeSamples(w, configs, 1, &pool);
  ExpectSamplesIdentical(serial, parallel);
}

TEST(ParallelEvalTest, MakeSamplesMatchesSerialMakeSampleLoop) {
  const SystemSetup setup = TinySetup();
  const Evaluator evaluator(setup);
  const model::WorkloadSpec w{0.1, 0.3, 0.2, 0.4};
  const std::vector<TuningConfig> configs = SomeConfigs(setup);

  std::vector<Sample> loop;
  uint64_t salt = 41;
  for (const TuningConfig& c : configs) {
    loop.push_back(evaluator.MakeSample(w, c, ++salt));
  }
  util::ThreadPool pool(3);
  ExpectSamplesIdentical(loop, evaluator.MakeSamples(w, configs, 42, &pool));
}

TEST(ParallelEvalTest, EvaluateBatchIdenticalSerialVsParallel) {
  const SystemSetup setup = TinySetup();
  const Evaluator evaluator(setup);
  std::vector<EvalJob> jobs;
  uint64_t salt = 0;
  for (const TuningConfig& c : SomeConfigs(setup)) {
    jobs.push_back(EvalJob{model::WorkloadSpec{0.25, 0.25, 0.25, 0.25}, c,
                           ++salt});
  }
  const std::vector<Measurement> serial = evaluator.EvaluateBatch(jobs);
  util::ThreadPool pool(4);
  const std::vector<Measurement> parallel = evaluator.EvaluateBatch(jobs, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].mean_latency_ns, parallel[i].mean_latency_ns);
    EXPECT_EQ(serial[i].p90_latency_ns, parallel[i].p90_latency_ns);
    EXPECT_EQ(serial[i].ios_per_op, parallel[i].ios_per_op);
    EXPECT_EQ(serial[i].total_cost_ns, parallel[i].total_cost_ns);
  }
}

template <typename Tuner>
void ExpectTrainingIdenticalAcrossThreadCounts() {
  const SystemSetup setup = TinySetup();
  const std::vector<model::WorkloadSpec> workloads = {
      model::WorkloadSpec{0.25, 0.25, 0.25, 0.25},
      model::WorkloadSpec{0.1, 0.4, 0.1, 0.4},
  };

  auto train = [&](int threads) {
    TunerOptions options;
    options.threads = threads;
    options.refine_rounds = 1;
    options.budget_per_workload = 6;
    Tuner tuner(setup, options);
    tuner.Train(workloads);
    return tuner;
  };
  const Tuner serial = train(1);
  const Tuner parallel = train(4);

  ExpectSamplesIdentical(serial.samples(), parallel.samples());
  EXPECT_EQ(serial.sampling_cost_ns(), parallel.sampling_cost_ns());
  for (const model::WorkloadSpec& w : workloads) {
    const TuningConfig a = serial.Recommend(w);
    const TuningConfig b = parallel.Recommend(w);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.size_ratio, b.size_ratio);
    EXPECT_EQ(a.mf_bits, b.mf_bits);
    EXPECT_EQ(a.mb_bits, b.mb_bits);
    EXPECT_EQ(a.mc_bits, b.mc_bits);
    EXPECT_EQ(a.runs_per_level, b.runs_per_level);
  }
}

TEST(ParallelEvalTest, CamalTunerTrainIdenticalAt1And4Threads) {
  ExpectTrainingIdenticalAcrossThreadCounts<CamalTuner>();
}

TEST(ParallelEvalTest, GridTunerTrainIdenticalAt1And4Threads) {
  ExpectTrainingIdenticalAcrossThreadCounts<GridTuner>();
}

TEST(ParallelEvalTest, PlainAlTunerTrainIdenticalAt1And4Threads) {
  ExpectTrainingIdenticalAcrossThreadCounts<PlainAlTuner>();
}

TEST(ParallelEvalTest, BayesTunerTrainIdenticalAt1And4Threads) {
  ExpectTrainingIdenticalAcrossThreadCounts<BayesOptTuner>();
}

TEST(ParallelEvalTest, ExecuteBatchIdenticalSerialVsParallel) {
  const SystemSetup setup = TinySetup();
  workload::KeySpace keys(setup.num_entries, setup.seed);
  TuningConfig config;
  config.mf_bits = 10.0 * static_cast<double>(setup.num_entries);
  config.mb_bits = static_cast<double>(setup.total_memory_bits) - config.mf_bits;

  auto run = [&](util::ThreadPool* pool) {
    // Each job needs its own engine; engines are rebuilt per run so the
    // serial and parallel batches start from identical states.
    std::vector<std::unique_ptr<engine::ShardedEngine>> engines;
    std::vector<workload::ExecuteJob> jobs;
    for (int j = 0; j < 4; ++j) {
      engines.push_back(std::make_unique<engine::ShardedEngine>(
          1, config.ToOptions(setup), setup.device));
      workload::BulkLoad(engines.back().get(), keys);
      workload::ExecuteJob job;
      job.engine = engines.back().get();
      job.spec = model::WorkloadSpec{0.25, 0.25, 0.25, 0.25};
      job.config.num_ops = 500;
      job.config.seed = 100 + static_cast<uint64_t>(j);
      job.keys = &keys;
      jobs.push_back(job);
    }
    return workload::ExecuteBatch(jobs, pool);
  };

  const std::vector<workload::ExecutionResult> serial = run(nullptr);
  util::ThreadPool pool(4);
  const std::vector<workload::ExecutionResult> parallel = run(&pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].total_ns, parallel[i].total_ns) << "job " << i;
    EXPECT_EQ(serial[i].total_ios, parallel[i].total_ios) << "job " << i;
    EXPECT_EQ(serial[i].lookups_found, parallel[i].lookups_found) << "job " << i;
    EXPECT_EQ(serial[i].lookups_missed, parallel[i].lookups_missed)
        << "job " << i;
  }
}

}  // namespace
}  // namespace camal::tune
