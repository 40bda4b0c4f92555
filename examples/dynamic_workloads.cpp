// Dynamic mode (Section 6): a single live LSM-tree serves the paper's 24
// shifting Table-2 workloads while CAMAL's detector (window p, threshold
// tau) re-tunes it on the fly. The tree morphs lazily during natural
// compactions; transition I/Os are reported.
//
// Build & run:  ./build/example_dynamic_workloads

#include <cstdio>

#include "camal/camal_tuner.h"
#include "camal/dynamic_tuner.h"
#include "camal/evaluator.h"
#include "engine/sharded_engine.h"
#include "workload/tables.h"

using namespace camal;
using namespace camal::tune;

int main() {
  SystemSetup setup;
  setup.num_entries = 20000;  // keep the demo quick
  setup.total_memory_bits = 16 * 20000;

  // Train once, at 1/10 scale.
  TunerOptions options;
  options.model_kind = ModelKind::kTrees;
  options.extrapolation_factor = 10.0;
  CamalTuner camal(setup, options);
  camal.Train(workload::TrainingWorkloads());
  std::printf("trained: %zu samples\n\n", camal.samples().size());

  // One long-lived tree (a 1-shard engine), starting from the
  // RocksDB-style default config.
  engine::ShardedEngine eng(1, MonkeyDefaultConfig(setup).ToOptions(setup),
                            setup.device);
  workload::KeySpace keys(setup.num_entries, setup.seed);
  workload::BulkLoad(&eng, keys);

  DynamicTuner::Params params;
  params.window_ops = 1000;  // p
  params.tau = 0.10;         // tau
  DynamicTuner dynamic(
      [&](const model::WorkloadSpec& w, const model::SystemParams& target) {
        return camal.RecommendFor(w, target);
      },
      setup, params);

  std::printf("%3s %-38s %10s %8s %6s %8s\n", "ph", "workload", "latency/op",
              "I/O-op", "T", "reconf");
  const auto phases = workload::ShiftingWorkloads();
  for (size_t i = 0; i < phases.size(); ++i) {
    const auto result =
        dynamic.RunPhase(&eng, &keys, phases[i], 4000, /*seed=*/i + 1);
    std::printf("%3zu %-38s %8.1fus %8.2f %6.0f %8zu\n", i + 1,
                phases[i].ToString().c_str(), result.MeanLatencyNs() / 1e3,
                result.IosPerOp(), eng.ShardOptionsSnapshot(0).size_ratio,
                dynamic.reconfigurations());
  }
  const engine::EngineCounters counters = eng.AggregateCounters();
  std::printf("\ntotal transition I/Os: %llu (vs %llu compaction I/Os)\n",
              static_cast<unsigned long long>(counters.transition_ios),
              static_cast<unsigned long long>(
                  counters.compaction_block_reads +
                  counters.compaction_block_writes));
  std::printf("data grew to %llu entries across the phases\n",
              static_cast<unsigned long long>(eng.TotalEntries()));
  return 0;
}
