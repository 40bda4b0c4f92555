// Model playground (Section 7): fit the three embedded ML families on the
// same set of measured samples and compare their accuracy on held-out
// configurations — Poly and Trees do well on little data, the NN lags.
//
// Build & run:  ./build/example_model_playground

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "camal/evaluator.h"
#include "camal/sample.h"
#include "model/cost_model.h"
#include "util/random.h"

using namespace camal;
using namespace camal::tune;

int main() {
  SystemSetup setup;
  setup.num_entries = 8000;
  setup.total_memory_bits = 16 * 8000;
  setup.train_ops = 800;
  Evaluator evaluator(setup);
  const model::SystemParams sys = setup.ToModelParams();
  model::WorkloadSpec w{0.25, 0.25, 0.25, 0.25};

  // Gather samples on a (T, bits-per-key) grid.
  util::Random rng(1);
  std::vector<Sample> train, test;
  uint64_t salt = 0;
  for (double t : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    for (double bpk : {0.0, 4.0, 8.0, 12.0}) {
      TuningConfig c;
      c.size_ratio = t;
      c.mf_bits = bpk * sys.num_entries;
      c.mb_bits = sys.total_memory_bits - c.mf_bits;
      Sample s = evaluator.MakeSample(w, c, ++salt);
      (rng.Bernoulli(0.75) ? train : test).push_back(s);
    }
  }
  std::printf("%zu training samples, %zu held-out samples\n\n", train.size(),
              test.size());

  for (ModelKind kind :
       {ModelKind::kPoly, ModelKind::kTrees, ModelKind::kNn}) {
    std::unique_ptr<ml::Regressor> model = MakeModel(kind, 7);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (const Sample& s : train) {
      x.push_back(RawFeatures(s.workload, s.config, s.sys));
      y.push_back(s.mean_latency_ns / 1000.0);
    }
    model->Fit(x, y);
    double sse = 0.0, baseline = 0.0, mean = 0.0;
    for (const Sample& s : test) mean += s.mean_latency_ns / 1000.0;
    mean /= static_cast<double>(test.size());
    for (const Sample& s : test) {
      const double pred =
          model->Predict(RawFeatures(s.workload, s.config, s.sys));
      const double truth = s.mean_latency_ns / 1000.0;
      sse += (pred - truth) * (pred - truth);
      baseline += (mean - truth) * (mean - truth);
    }
    std::printf("%-6s held-out RMSE %7.2f us   (R^2 = %.2f)\n",
                ModelKindName(kind),
                std::sqrt(sse / static_cast<double>(test.size())),
                1.0 - sse / baseline);
  }

  // The closed-form I/O model, for contrast: correlation only, no latency.
  const model::CostModel cm(sys);
  std::printf("\nclosed-form I/O cost vs measured latency (held-out):\n");
  for (const Sample& s : test) {
    std::printf("  T=%4.0f bpk=%4.1f   theory=%6.3f I/O   measured=%7.1f us\n",
                s.config.size_ratio, s.config.mf_bits / sys.num_entries,
                cm.OpCost(s.workload, s.config.ToModelConfig()),
                s.mean_latency_ns / 1e3);
  }
  return 0;
}
