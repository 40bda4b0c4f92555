// End-to-end CAMAL tuning: train the decoupled active learner on the
// paper's Table-1 workloads (with the x10 extrapolation strategy), then
// compare its recommendation against well-tuned-RocksDB defaults and
// classic tuning on a workload it never saw.
//
// Build & run:  ./build/example_workload_tuning

#include <cstdio>

#include "camal/camal_tuner.h"
#include "camal/classic_tuner.h"
#include "camal/evaluator.h"
#include "workload/tables.h"

using namespace camal;
using namespace camal::tune;

int main() {
  SystemSetup setup;  // 40k x 128B entries, ~16 bits/key memory budget
  Evaluator evaluator(setup);

  // Train CAMAL (gradient-boosted trees) at 1/10th scale — Lemma 5.1 lets
  // the learned model extrapolate to the full system.
  TunerOptions options;
  options.model_kind = ModelKind::kTrees;
  options.extrapolation_factor = 10.0;
  CamalTuner camal(setup, options);
  std::printf("training CAMAL(Trees) on the 15 Table-1 workloads...\n");
  camal.Train(workload::TrainingWorkloads());
  std::printf("  %zu samples, simulated sampling cost %.1f s\n",
              camal.samples().size(), camal.sampling_cost_ns() / 1e9);

  ClassicTuner classic(setup, TunerOptions{});
  MonkeyTuner monkey(setup);

  // A workload outside the training table: mixed reads with some scans.
  model::WorkloadSpec target{0.15, 0.45, 0.25, 0.15};
  std::printf("\ntarget workload %s\n", target.ToString().c_str());

  struct Row {
    const char* name;
    TuningConfig config;
  };
  const Row rows[] = {
      {"CAMAL(Trees)", camal.Recommend(target)},
      {"Classic", classic.Recommend(target)},
      {"Monkey", monkey.Recommend(target)},
  };
  std::printf("%-14s %-44s %10s %10s %8s\n", "method", "config",
              "latency/op", "p90", "I/O per op");
  for (const Row& row : rows) {
    const Measurement m = evaluator.Evaluate(target, row.config);
    std::printf("%-14s %-44s %8.1fus %8.1fus %8.2f\n", row.name,
                row.config.ToString().c_str(), m.mean_latency_ns / 1e3,
                m.p90_latency_ns / 1e3, m.ios_per_op);
  }
  return 0;
}
