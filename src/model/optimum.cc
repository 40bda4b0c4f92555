#include "model/optimum.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace camal::model {

namespace {
constexpr double kLn2Sq = 0.4804530139182014;

// Golden-section minimization of a unimodal-ish 1-D function on [lo, hi].
template <typename F>
double GoldenMin(F f, double lo, double hi, int iters = 80) {
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = lo, b = hi;
  double x1 = b - phi * (b - a);
  double x2 = a + phi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  for (int i = 0; i < iters; ++i) {
    if (f1 < f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - phi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + phi * (b - a);
      f2 = f(x2);
    }
  }
  return (a + b) / 2.0;
}
}  // namespace

double MinBufferBits(const SystemParams& params) {
  // At least 5% of the memory budget (scale-invariant, so a scaled-down
  // training instance explores the same bits-per-key range as the full
  // system — extrapolation, Section 5), floored at 8 entries.
  return std::max(8.0 * params.entry_bits, 0.10 * params.total_memory_bits);
}

double OptimalSizeRatioLeveling(const WorkloadSpec& w_in,
                                const CostModel& model) {
  const WorkloadSpec w = w_in.Normalized();
  const double t_lim = model.SizeRatioLimit();
  const double b = model.params().block_entries;
  if (w.w <= 1e-9 && w.q <= 1e-9) return 10.0;  // point-lookup only
  if (w.w <= 1e-9) return t_lim;                 // no writes: shrink L
  // g(T) = w*T*(ln T - 1) - q*B, increasing for T > 1 on [e, T_lim].
  auto g = [&](double t) { return w.w * t * (std::log(t) - 1.0) - w.q * b; };
  const double e = std::exp(1.0);
  if (g(t_lim) <= 0.0) return t_lim;
  double lo = e, hi = t_lim;
  for (int i = 0; i < 100; ++i) {
    const double mid = (lo + hi) / 2.0;
    (g(mid) < 0.0 ? lo : hi) = mid;
  }
  return std::clamp((lo + hi) / 2.0, 2.0, t_lim);
}

double OptimalMfBitsLeveling(const WorkloadSpec& w_in, const CostModel& model,
                             double size_ratio, double mc_bits) {
  const WorkloadSpec w = w_in.Normalized();
  const SystemParams& p = model.params();
  const double budget = p.total_memory_bits - mc_bits;
  const double mf_max = std::max(0.0, budget - MinBufferBits(p));
  if (mf_max <= 0.0) return 0.0;
  if (w.v + w.r <= 1e-9) return 0.0;  // filters useless without point reads
  const double second_coeff =
      (w.q + w.w * size_ratio / p.block_entries) / std::log(size_ratio);
  if (second_coeff <= 1e-12) return mf_max;  // nothing competes for memory
  // h(mf) = -c(v+r)/N * exp(-c*mf/N) + second_coeff / (budget - mf)
  auto h = [&](double mf) {
    return -kLn2Sq * (w.v + w.r) / p.num_entries *
               std::exp(-kLn2Sq * mf / p.num_entries) +
           second_coeff / std::max(1.0, budget - mf);
  };
  if (h(0.0) >= 0.0) return 0.0;
  if (h(mf_max) <= 0.0) return mf_max;
  double lo = 0.0, hi = mf_max;
  for (int i = 0; i < 100; ++i) {
    const double mid = (lo + hi) / 2.0;
    (h(mid) < 0.0 ? lo : hi) = mid;
  }
  return (lo + hi) / 2.0;
}

double OptimalSizeRatioNumeric(const WorkloadSpec& w_in,
                               const CostModel& model,
                               const ModelConfig& base) {
  const WorkloadSpec w = w_in.Normalized();
  const int t_lim = static_cast<int>(std::floor(model.SizeRatioLimit()));
  double best_t = 2.0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int t = 2; t <= t_lim; ++t) {
    ModelConfig c = base;
    c.size_ratio = t;
    const double cost = model.OpCost(w, c);
    if (cost < best_cost) {
      best_cost = cost;
      best_t = t;
    }
  }
  return best_t;
}

double OptimalMfBitsNumeric(const WorkloadSpec& w_in, const CostModel& model,
                            const ModelConfig& base, double mc_bits) {
  const WorkloadSpec w = w_in.Normalized();
  const SystemParams& p = model.params();
  const double budget = p.total_memory_bits - mc_bits;
  const double mf_max = std::max(0.0, budget - MinBufferBits(p));
  if (mf_max <= 0.0) return 0.0;
  auto objective = [&](double mf) {
    ModelConfig c = base;
    c.mf_bits = mf;
    c.mb_bits = budget - mf;
    return model.OpCost(w, c);
  };
  const double mf = GoldenMin(objective, 0.0, mf_max);
  // Golden section can get stuck on a boundary plateau; compare endpoints.
  double best = mf;
  double best_cost = objective(mf);
  for (double cand : {0.0, mf_max}) {
    const double cost = objective(cand);
    if (cost < best_cost) {
      best_cost = cost;
      best = cand;
    }
  }
  return best;
}

TheoreticalOptimum MinimizeCost(const WorkloadSpec& w_in,
                                const CostModel& model,
                                lsm::CompactionPolicy policy) {
  const WorkloadSpec w = w_in.Normalized();
  const SystemParams& p = model.params();
  const int t_lim = static_cast<int>(std::floor(model.SizeRatioLimit()));
  TheoreticalOptimum best;
  best.cost = std::numeric_limits<double>::infinity();
  for (int t = 2; t <= t_lim; ++t) {
    ModelConfig c;
    c.policy = policy;
    c.size_ratio = t;
    const double mf = OptimalMfBitsNumeric(w, model, c, /*mc_bits=*/0.0);
    c.mf_bits = mf;
    c.mb_bits = p.total_memory_bits - mf;
    const double cost = model.OpCost(w, c);
    if (cost < best.cost) {
      best.cost = cost;
      best.config = c;
    }
  }
  return best;
}

}  // namespace camal::model
