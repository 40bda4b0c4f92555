// Engine micro-benchmarks (google-benchmark): wall-clock cost of the core
// LSM operations and ML primitives. These measure the *reproduction's own*
// implementation speed (not the simulated latency the figures report).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "camal/evaluator.h"
#include "engine/sharded_engine.h"
#include "lsm/bloom.h"
#include "lsm/lsm_tree.h"
#include "lsm/monkey.h"
#include "ml/gbdt.h"
#include "ml/poly.h"
#include "model/optimum.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace {

camal::sim::DeviceConfig QuietDevice() {
  camal::sim::DeviceConfig cfg;
  cfg.io_jitter_frac = 0.0;
  return cfg;
}

camal::lsm::Options DefaultOptions() {
  camal::lsm::Options opts;
  opts.entry_bytes = 128;
  opts.buffer_bytes = 128 * 256;
  opts.bloom_bits = 10 * 40000;
  return opts;
}

void BM_LsmPut(benchmark::State& state) {
  camal::sim::Device device(QuietDevice());
  camal::lsm::LsmTree tree(DefaultOptions(), &device);
  camal::util::Random rng(1);
  uint64_t key = 0;
  for (auto _ : state) {
    tree.Put(rng.Next() % (1 << 22), ++key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmPut);

void BM_LsmGetHit(benchmark::State& state) {
  camal::sim::Device device(QuietDevice());
  camal::lsm::LsmTree tree(DefaultOptions(), &device);
  for (uint64_t k = 1; k <= 40000; ++k) tree.Put(2 * k, k);
  camal::util::Random rng(2);
  uint64_t value = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(2 * (1 + rng.Uniform(40000)), &value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmGetHit);

void BM_LsmGetMiss(benchmark::State& state) {
  camal::sim::Device device(QuietDevice());
  camal::lsm::LsmTree tree(DefaultOptions(), &device);
  for (uint64_t k = 1; k <= 40000; ++k) tree.Put(2 * k, k);
  camal::util::Random rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(2 * rng.Uniform(40000) + 1, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmGetMiss);

void BM_LsmScan(benchmark::State& state) {
  camal::sim::Device device(QuietDevice());
  camal::lsm::LsmTree tree(DefaultOptions(), &device);
  for (uint64_t k = 1; k <= 40000; ++k) tree.Put(2 * k, k);
  camal::util::Random rng(4);
  std::vector<camal::lsm::Entry> out;
  for (auto _ : state) {
    out.clear();
    tree.Scan(2 * rng.Uniform(40000), 16, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmScan);

// The sampler's worst build shape: a 4000-key bulk load through a 4-entry
// write buffer at T = 10, so nearly every Put flushes a tiny run and most
// runs are merged away before any lookup could reach them.
void BM_LsmBulkLoadTinyBuffer(benchmark::State& state) {
  camal::lsm::Options opts;
  opts.entry_bytes = 128;
  opts.buffer_bytes = 4 * 128;
  opts.size_ratio = 10.0;
  opts.bloom_bits = 10 * 4000;
  const camal::workload::KeySpace keys(4000, 7);
  for (auto _ : state) {
    camal::sim::Device device(QuietDevice());
    camal::lsm::LsmTree tree(opts, &device);
    uint64_t value = 1;
    for (uint64_t key : keys.keys()) tree.Put(key, value++);
    benchmark::DoNotOptimize(device.elapsed_ns());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.num_keys()));
}
BENCHMARK(BM_LsmBulkLoadTinyBuffer)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------------------
// Sharded serving engine: the same core operations through
// engine::ShardedEngine at varying shard counts (Arg = shards). Overhead
// vs the BM_Lsm* direct-tree numbers is the partition + scatter-gather
// cost.

void BM_ShardedPut(benchmark::State& state) {
  const auto shards = static_cast<size_t>(state.range(0));
  camal::engine::ShardedEngine eng(shards, DefaultOptions(), QuietDevice());
  camal::util::Random rng(1);
  uint64_t key = 0;
  for (auto _ : state) {
    eng.Put(rng.Next() % (1 << 22), ++key);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ShardedPut)->Arg(1)->Arg(4)->Arg(16);

void BM_ShardedGetHit(benchmark::State& state) {
  const auto shards = static_cast<size_t>(state.range(0));
  camal::engine::ShardedEngine eng(shards, DefaultOptions(), QuietDevice());
  for (uint64_t k = 1; k <= 40000; ++k) eng.Put(2 * k, k);
  camal::util::Random rng(2);
  uint64_t value = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.Get(2 * (1 + rng.Uniform(40000)), &value));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ShardedGetHit)->Arg(1)->Arg(4)->Arg(16);

// The same gets as BM_ShardedGetHit, each submitted as a one-op
// ExecuteOps batch: the gap between the two is the batched path's fixed
// cost (partition, per-op cost attribution, profiling).
void BM_ShardedExecuteOpsGet(benchmark::State& state) {
  const auto shards = static_cast<size_t>(state.range(0));
  camal::engine::ShardedEngine eng(shards, DefaultOptions(), QuietDevice());
  for (uint64_t k = 1; k <= 40000; ++k) eng.Put(2 * k, k);
  camal::util::Random rng(2);
  camal::engine::Op op;
  camal::engine::OpResult result;
  for (auto _ : state) {
    op.key = 2 * (1 + rng.Uniform(40000));
    eng.ExecuteOps(&op, 1, &result);
    benchmark::DoNotOptimize(result.found);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ShardedExecuteOpsGet)->Arg(1)->Arg(4)->Arg(16);

void BM_ShardedScan(benchmark::State& state) {
  const auto shards = static_cast<size_t>(state.range(0));
  camal::engine::ShardedEngine eng(shards, DefaultOptions(), QuietDevice());
  for (uint64_t k = 1; k <= 40000; ++k) eng.Put(2 * k, k);
  camal::util::Random rng(4);
  std::vector<camal::lsm::Entry> out;
  for (auto _ : state) {
    out.clear();
    eng.Scan(2 * rng.Uniform(40000), 16, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ShardedScan)->Arg(1)->Arg(4)->Arg(16);

void BM_BloomProbe(benchmark::State& state) {
  camal::lsm::BloomFilter filter(40000, 10.0);
  for (uint64_t k = 0; k < 40000; ++k) filter.Add(2 * k);
  camal::util::Random rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.MayContain(rng.Next()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomProbe);

void BM_MonkeyAllocate(benchmark::State& state) {
  const std::vector<uint64_t> levels = {300, 2700, 24300, 218700};
  for (auto _ : state) {
    benchmark::DoNotOptimize(camal::lsm::MonkeyAllocate(10.0 * 246000, levels));
  }
}
BENCHMARK(BM_MonkeyAllocate);

void BM_TheoreticalOptimum(benchmark::State& state) {
  camal::model::SystemParams params;
  camal::model::CostModel cm(params);
  camal::model::WorkloadSpec w{0.25, 0.25, 0.25, 0.25};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        camal::model::MinimizeCost(w, cm, camal::lsm::CompactionPolicy::kLeveling));
  }
}
BENCHMARK(BM_TheoreticalOptimum);

void BM_GbdtFitPredict(benchmark::State& state) {
  camal::util::Random rng(6);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 90; ++i) {
    x.push_back({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()});
    y.push_back(x.back()[0] * 3 + x.back()[1]);
  }
  for (auto _ : state) {
    camal::ml::Gbdt gbdt;
    gbdt.Fit(x, y);
    benchmark::DoNotOptimize(gbdt.Predict(x[0]));
  }
}
BENCHMARK(BM_GbdtFitPredict);

// ------------------------------------------------------------------------
// Parallel evaluation engine: one CAMAL-style sampling batch (8 candidate
// configurations on a small setup) through Evaluator::MakeSamples, fanned
// across the pool configured by --threads. Items/sec at --threads=N vs
// --threads=1 is the engine's speedup; the results themselves are
// bit-identical either way.

camal::tune::SystemSetup BatchSetup() {
  camal::tune::SystemSetup setup = camal::bench::BenchSetup();
  setup.num_entries = 4000;
  setup.total_memory_bits = 16 * 4000;
  setup.train_ops = 300;
  setup.eval_ops = 600;
  return setup;
}

void BM_EvaluatorSampleBatch(benchmark::State& state) {
  const camal::tune::SystemSetup setup = BatchSetup();
  const camal::tune::Evaluator evaluator(setup);
  const camal::model::WorkloadSpec w{0.25, 0.25, 0.25, 0.25};
  std::vector<camal::tune::TuningConfig> configs;
  for (double t : {2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0}) {
    camal::tune::TuningConfig c;
    c.size_ratio = t;
    c.mf_bits = 10.0 * static_cast<double>(setup.num_entries);
    c.mb_bits = static_cast<double>(setup.total_memory_bits) - c.mf_bits;
    configs.push_back(c);
  }
  camal::util::ThreadPool* pool = camal::util::GlobalPool();
  uint64_t salt = 1;
  for (auto _ : state) {
    const auto samples = evaluator.MakeSamples(w, configs, salt, pool);
    benchmark::DoNotOptimize(samples.data());
    salt += configs.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(configs.size()));
  state.counters["threads"] =
      static_cast<double>(camal::util::GlobalThreads());
}
BENCHMARK(BM_EvaluatorSampleBatch)->Unit(benchmark::kMillisecond);

void BM_ParallelForOverhead(benchmark::State& state) {
  camal::util::ThreadPool* pool = camal::util::GlobalPool();
  std::vector<double> out(64);
  for (auto _ : state) {
    camal::util::ParallelFor(pool, 0, out.size(), [&](size_t i) {
      double acc = 0.0;
      for (int k = 0; k < 2000; ++k) {
        acc += static_cast<double>((i + 1) * (k + 1) % 97);
      }
      out[i] = acc;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_ParallelForOverhead);

}  // namespace

// Custom main: strip --threads=N (0 = all cores) and --json PATH before
// google-benchmark sees the unknown flags, then size the global pool.
// --json PATH is sugar for --benchmark_out=PATH --benchmark_out_format=json
// — machine-readable output (op throughput, per-benchmark latency, the
// threads/shards counters) for the perf-trajectory artifact.
int main(int argc, char** argv) {
  camal::bench::InitBenchThreads(&argc, argv);
  const std::string json_path = camal::bench::TakeJsonFlag(&argc, argv);

  std::vector<std::string> arg_storage(argv, argv + argc);
  if (!json_path.empty()) {
    arg_storage.insert(arg_storage.begin() + 1,
                       "--benchmark_out_format=json");
    arg_storage.insert(arg_storage.begin() + 1,
                       "--benchmark_out=" + json_path);
  }
  std::vector<char*> args;
  args.reserve(arg_storage.size() + 1);
  for (std::string& s : arg_storage) args.push_back(s.data());
  args.push_back(nullptr);
  int bench_argc = static_cast<int>(arg_storage.size());

  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) {
    std::printf("[bench] wrote %s\n", json_path.c_str());
  }
  return 0;
}
