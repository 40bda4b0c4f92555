#include "camal/camal_tuner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "camal/extrapolation.h"
#include "camal/group_sampling.h"
#include "camal/plain_al_tuner.h"  // SameConfig
#include "model/optimum.h"

namespace camal::tune {

CamalTuner::CamalTuner(const SystemSetup& full_setup,
                       const TunerOptions& options)
    : ModelBackedTuner(full_setup, options) {}

namespace {
bool SameWorkload(const model::WorkloadSpec& a, const model::WorkloadSpec& b) {
  return std::fabs(a.v - b.v) < 1e-9 && std::fabs(a.r - b.r) < 1e-9 &&
         std::fabs(a.q - b.q) < 1e-9 && std::fabs(a.w - b.w) < 1e-9 &&
         std::fabs(a.skew - b.skew) < 1e-9;
}
}  // namespace

TuningConfig CamalTuner::RecommendFor(const model::WorkloadSpec& w,
                                      const model::SystemParams& target) const {
  const model::WorkloadSpec normalized = w.Normalized();
  // Dynamic mode hands us detector-estimated mixes that rarely match a
  // trained workload exactly. For unseen mixes, score every trained
  // workload's chosen configuration under the model *for the new mix* —
  // the model's predictions are well-grounded at measured configurations,
  // while its global argmin may live in an extrapolated corner. The raw
  // argmin is kept only when it predicts a clear (>25%) advantage.
  bool have_exact = false;
  for (const Sample& s : samples_) {
    if (SameWorkload(s.workload, normalized)) {
      have_exact = true;
      break;
    }
  }
  if (!have_exact) {
    if (samples_.empty() || !has_model()) {
      return ModelBackedTuner::RecommendFor(w, target);
    }
    // Distinct trained workloads -> their per-workload recommendations.
    std::vector<model::WorkloadSpec> trained;
    for (const Sample& s : samples_) {
      bool seen = false;
      for (const model::WorkloadSpec& t : trained) {
        if (SameWorkload(t, s.workload)) {
          seen = true;
          break;
        }
      }
      if (!seen) trained.push_back(s.workload);
    }
    TuningConfig best;
    double best_pred = std::numeric_limits<double>::infinity();
    for (const model::WorkloadSpec& t : trained) {
      const TuningConfig candidate = RecommendFor(t, target);
      const double pred = PredictObjective(normalized, candidate, target);
      if (pred < best_pred) {
        best_pred = pred;
        best = candidate;
      }
    }
    const TuningConfig argmin = ArgminOverGrid(normalized, target);
    if (PredictObjective(normalized, argmin, target) < 0.75 * best_pred) {
      return argmin;
    }
    return best;
  }
  // Group this workload's samples by configuration (repeat measurements of
  // the same point — e.g. from the refine rounds — average out) and pick
  // the best measured group.
  struct Group {
    const Sample* sample = nullptr;
    double total = 0.0;
    int count = 0;
  };
  std::vector<Group> groups;
  for (const Sample& s : samples_) {
    if (!SameWorkload(s.workload, normalized)) continue;
    const double value = ObjectiveValue(s, options_.objective);
    bool merged = false;
    for (Group& g : groups) {
      if (SameConfig(g.sample->config, s.config)) {
        g.total += value;
        ++g.count;
        merged = true;
        break;
      }
    }
    if (!merged) groups.push_back(Group{&s, value, 1});
  }
  if (groups.empty()) return ModelBackedTuner::RecommendFor(w, target);
  const Group* best = &groups.front();
  for (const Group& g : groups) {
    if (g.total / g.count < best->total / best->count) best = &g;
  }
  // Lemma 5.1: rescale the measured configuration to the target scale.
  const double k = target.num_entries / best->sample->sys.num_entries;
  return ExtrapolateConfig(best->sample->config, k);
}

std::vector<TuningConfig> CamalTuner::CandidateGrid(
    const model::WorkloadSpec& w, const model::SystemParams& target) const {
  const model::CostModel cm(target, options_.cost_corrector.get());
  const double t_lim = std::floor(cm.SizeRatioLimit());
  const double n = target.num_entries;
  const double m = target.total_memory_bits;
  const double min_buf = model::MinBufferBits(target);
  const double max_bpk = MaxBloomBpk(target);
  const lsm::CompactionPolicy policy = options_.policy;

  std::vector<double> mc_fracs = {0.0};
  if (options_.tune_mc) mc_fracs = {0.0, 0.1, 0.2, 0.3, 0.4};

  TuningConfig defaults;
  defaults.policy = policy;
  defaults.mf_bits = std::min(10.0 * n, 0.8 * m);
  defaults.mb_bits = m - defaults.mf_bits;

  double t_star;
  if (policy == lsm::CompactionPolicy::kLeveling) {
    t_star = model::OptimalSizeRatioLeveling(w, cm);
  } else {
    t_star = model::OptimalSizeRatioNumeric(w, cm, defaults.ToModelConfig());
  }
  t_star = std::clamp(std::round(std::min(t_star, kTStarCap * t_lim)), 2.0,
                      t_lim);
  const double t_cap = std::max(4.0, kTSearchCap * t_lim);
  const double t_lo = std::max(2.0, std::floor(t_star / kTWindow));
  const double t_hi = std::min(t_cap, std::ceil(t_star * kTWindow));

  std::vector<double> bpk_values;
  if (options_.tune_memory) {
    double bpk_star;
    if (policy == lsm::CompactionPolicy::kLeveling) {
      bpk_star = model::OptimalMfBitsLeveling(w, cm, t_star) / n;
    } else {
      TuningConfig probe = defaults;
      probe.size_ratio = t_star;
      bpk_star = model::OptimalMfBitsNumeric(w, cm, probe.ToModelConfig()) / n;
    }
    // Window spans the theoretical optimum AND the practical default
    // (10 bits/key): the closed form can badly underestimate filter
    // memory when its buffer-size derivative is off (e.g. sparse shallow
    // levels make small buffers cheap for scans).
    const double lo = std::max(0.0, std::min(bpk_star, 10.0) - kPruneRadius);
    const double hi =
        std::min(max_bpk, std::max(bpk_star, 10.0) + kPruneRadius);
    for (double bpk = lo; bpk <= hi + 1e-9; bpk += 1.0) {
      bpk_values.push_back(bpk);
    }
  } else {
    bpk_values.push_back(std::min(10.0, max_bpk));
  }

  std::vector<TuningConfig> grid;
  for (double t = t_lo; t <= t_hi + 1e-9; t += 1.0) {
    std::vector<int> k_values = {0};
    if (options_.k_mode != KTuningMode::kOff) {
      k_values.clear();
      for (int k = 1; k <= std::min(8, static_cast<int>(t)); ++k) {
        k_values.push_back(k);
      }
    }
    for (double bpk : bpk_values) {
      for (double mc_frac : mc_fracs) {
        for (int k : k_values) {
          TuningConfig c;
          c.policy = policy;
          c.size_ratio = std::round(t);
          c.runs_per_level = k;
          c.mc_bits = mc_frac * m;
          c.mf_bits = std::clamp(bpk * n, 0.0, m - c.mc_bits - min_buf);
          if (c.mf_bits < 0.0) continue;
          c.mb_bits = m - c.mf_bits - c.mc_bits;
          if (c.mb_bits < min_buf) continue;
          grid.push_back(c);
        }
      }
    }
  }
  return grid;
}

std::vector<double> CamalTuner::SizeRatioNeighborhood(double t_star,
                                                      double t_lim) const {
  std::vector<double> out;
  auto push = [&](double v) {
    v = std::clamp(std::round(v), 2.0, std::floor(t_lim));
    for (double existing : out) {
      if (std::fabs(existing - v) < 0.5) return;
    }
    out.push_back(v);
  };
  push(t_star);
  for (double factor = 2.0;
       static_cast<int>(out.size()) < options_.samples_per_round;
       factor *= 2.0) {
    push(t_star / factor);
    if (static_cast<int>(out.size()) >= options_.samples_per_round) break;
    push(t_star * factor);
    if (factor > 16.0) break;  // range exhausted
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> CamalTuner::Neighborhood(double center, double lo,
                                             double hi, double step) const {
  std::vector<double> out;
  auto push = [&](double v) {
    v = std::clamp(v, lo, hi);
    for (double existing : out) {
      if (std::fabs(existing - v) < 1e-9) return;
    }
    out.push_back(v);
  };
  push(center);
  for (int ring = 1; static_cast<int>(out.size()) < options_.samples_per_round;
       ++ring) {
    push(center - ring * step);
    if (static_cast<int>(out.size()) >= options_.samples_per_round) break;
    push(center + ring * step);
    if (ring > 8) break;  // range exhausted
  }
  std::sort(out.begin(), out.end());
  return out;
}

void CamalTuner::Train(const std::vector<model::WorkloadSpec>& workloads) {
  tuned_configs_.clear();
  const model::SystemParams train_sys = train_setup_.ToModelParams();
  for (const model::WorkloadSpec& w : workloads) {
    TrainWorkload(w);
    // Closing AL iterations: sample the model's current favorite within the
    // pruned window, learn from it, repeat.
    for (int round = 0; round < options_.refine_rounds; ++round) {
      const TuningConfig candidate = ArgminOverGrid(w, train_sys);
      CollectSample(w, candidate);
      RefitModel();
    }
    // The recommendation for this workload given everything learned so far.
    tuned_configs_.push_back(Recommend(w));
    Checkpoint();
  }
}

TuningConfig CamalTuner::TrainWorkload(const model::WorkloadSpec& w) {
  const lsm::CompactionPolicy policy = options_.policy;
  const model::SystemParams sys = train_setup_.ToModelParams();
  const model::CostModel cm(sys, options_.cost_corrector.get());
  const double t_lim = std::floor(cm.SizeRatioLimit());
  const double n = sys.num_entries;
  const double m = sys.total_memory_bits;
  const double min_buf = model::MinBufferBits(sys);

  // Untuned parameters start from the Monkey-style defaults.
  TuningConfig cur;
  cur.policy = policy;
  cur.mf_bits = std::min(10.0 * n, 0.8 * m);
  cur.mb_bits = m - cur.mf_bits;
  cur.mc_bits = 0.0;

  auto set_memory = [&](double mf_bits, double mc_bits) {
    mc_bits = std::max(0.0, mc_bits);
    mf_bits = std::clamp(mf_bits, 0.0, m - mc_bits - min_buf);
    cur.mc_bits = mc_bits;
    cur.mf_bits = mf_bits;
    cur.mb_bits = m - mf_bits - mc_bits;
  };

  // ---------------- Round 1: size ratio T (and K when co-dependent).
  double t_star;
  if (policy == lsm::CompactionPolicy::kLeveling) {
    t_star = model::OptimalSizeRatioLeveling(w, cm);
  } else {
    t_star = model::OptimalSizeRatioNumeric(w, cm, cur.ToModelConfig());
  }
  t_star = std::clamp(std::round(std::min(t_star, kTStarCap * t_lim)), 2.0,
                      t_lim);
  const double t_cap = std::max(4.0, kTSearchCap * t_lim);

  if (options_.k_mode == KTuningMode::kCodependent) {
    const int k_star = TheoreticalOptimalK(w, cm, t_star);
    const auto pairs = JointTkNeighborhood(
        t_star, k_star, options_.samples_per_round * 2, t_cap);
    std::vector<TuningConfig> round;
    for (const auto& [t, k] : pairs) {
      TuningConfig c = cur;
      c.size_ratio = t;
      c.runs_per_level = k;
      round.push_back(c);
    }
    CollectSamples(w, round);
    RefitModel();
    // Joint argmin over (T, K) within the pruned window.
    double best_pred = std::numeric_limits<double>::infinity();
    const int t_lo =
        static_cast<int>(std::max(2.0, std::floor(t_star / kTWindow)));
    const int t_hi =
        static_cast<int>(std::min(t_cap, std::ceil(t_star * kTWindow)));
    for (int t = t_lo; t <= t_hi; ++t) {
      for (int k = 1; k <= std::min(8, t); ++k) {
        TuningConfig c = cur;
        c.size_ratio = t;
        c.runs_per_level = k;
        const double pred = PredictObjective(w, c, sys);
        if (pred < best_pred) {
          best_pred = pred;
          cur.size_ratio = t;
          cur.runs_per_level = k;
        }
      }
    }
  } else {
    std::vector<TuningConfig> round;
    for (double t : SizeRatioNeighborhood(t_star, t_cap)) {
      TuningConfig c = cur;
      c.size_ratio = std::round(t);
      round.push_back(c);
    }
    CollectSamples(w, round);
    RefitModel();
    // Argmin within the pruned window around T* — the complexity analysis
    // bounds how far the intermediate model may pull the parameter.
    double best_pred = std::numeric_limits<double>::infinity();
    double best_t = cur.size_ratio;
    const int t_lo =
        static_cast<int>(std::max(2.0, std::floor(t_star / kTWindow)));
    const int t_hi =
        static_cast<int>(std::min(t_cap, std::ceil(t_star * kTWindow)));
    for (int t = t_lo; t <= t_hi; ++t) {
      TuningConfig c = cur;
      c.size_ratio = t;
      const double pred = PredictObjective(w, c, sys);
      if (pred < best_pred) {
        best_pred = pred;
        best_t = t;
      }
    }
    cur.size_ratio = best_t;
  }

  // ---------------- Round 2: memory split Mf vs Mb.
  if (!options_.tune_memory) {
    return cur;  // Figure 6g "+T" stage: keep the default memory split.
  }
  double mf_star;
  if (policy == lsm::CompactionPolicy::kLeveling) {
    mf_star = model::OptimalMfBitsLeveling(w, cm, cur.size_ratio, cur.mc_bits);
  } else {
    mf_star =
        model::OptimalMfBitsNumeric(w, cm, cur.ToModelConfig(), cur.mc_bits);
  }
  const double max_bpk = std::clamp((m - min_buf) / n, 0.0, 16.0);
  std::vector<double> bpk_samples = Neighborhood(mf_star / n, 0.0, max_bpk, 2.0);
  // Anchor at the practical default when theory lands far from it.
  if (std::fabs(mf_star / n - 10.0) > 3.0 && 10.0 <= max_bpk) {
    bpk_samples.push_back(10.0);
  }
  {
    std::vector<TuningConfig> round;
    for (double bpk : bpk_samples) {
      TuningConfig c = cur;
      c.mf_bits = std::clamp(bpk * n, 0.0, m - cur.mc_bits - min_buf);
      c.mb_bits = m - c.mf_bits - c.mc_bits;
      round.push_back(c);
    }
    CollectSamples(w, round);
  }
  RefitModel();
  {
    double best_pred = std::numeric_limits<double>::infinity();
    double best_bpk = cur.mf_bits / n;
    const double bpk_lo =
        std::max(0.0, std::min(mf_star / n, 10.0) - kPruneRadius);
    const double bpk_hi =
        std::min(max_bpk, std::max(mf_star / n, 10.0) + kPruneRadius);
    for (double bpk = bpk_lo; bpk <= bpk_hi + 1e-9; bpk += 0.5) {
      TuningConfig c = cur;
      c.mf_bits = std::clamp(bpk * n, 0.0, m - cur.mc_bits - min_buf);
      c.mb_bits = m - c.mf_bits - c.mc_bits;
      const double pred = PredictObjective(w, c, sys);
      if (pred < best_pred) {
        best_pred = pred;
        best_bpk = bpk;
      }
    }
    set_memory(best_bpk * n, cur.mc_bits);
  }

  // ---------------- Round 3 (optional): block cache Mc.
  if (options_.tune_mc) {
    // The closed-form model has no cache term; start from a practically
    // reasonable center (15% of the budget).
    std::vector<TuningConfig> round;
    for (double frac : Neighborhood(0.15, 0.0, 0.4, 0.15)) {
      TuningConfig c = cur;
      const double mc = frac * m;
      c.mc_bits = mc;
      c.mf_bits = std::clamp(cur.mf_bits, 0.0, m - mc - min_buf);
      c.mb_bits = m - c.mf_bits - c.mc_bits;
      round.push_back(c);
    }
    CollectSamples(w, round);
    RefitModel();
    double best_pred = std::numeric_limits<double>::infinity();
    double best_frac = 0.0;
    for (double frac = 0.0; frac <= 0.45; frac += 0.05) {
      TuningConfig c = cur;
      const double mc = frac * m;
      c.mc_bits = mc;
      c.mf_bits = std::clamp(cur.mf_bits, 0.0, m - mc - min_buf);
      c.mb_bits = m - c.mf_bits - c.mc_bits;
      const double pred = PredictObjective(w, c, sys);
      if (pred < best_pred) {
        best_pred = pred;
        best_frac = frac;
      }
    }
    const double mc = best_frac * m;
    set_memory(std::min(cur.mf_bits, m - mc - min_buf), mc);
  }

  // ---------------- Optional round: K tuned independently after T.
  if (options_.k_mode == KTuningMode::kIndependent) {
    const int k_star = TheoreticalOptimalK(w, cm, cur.size_ratio);
    std::vector<TuningConfig> round;
    for (double k : Neighborhood(k_star, 1.0,
                                 std::min(8.0, cur.size_ratio), 1.0)) {
      TuningConfig c = cur;
      c.runs_per_level = static_cast<int>(std::round(k));
      round.push_back(c);
    }
    CollectSamples(w, round);
    RefitModel();
    double best_pred = std::numeric_limits<double>::infinity();
    int best_k = std::max(1, cur.runs_per_level);
    for (int k = 1; k <= std::min(8, static_cast<int>(cur.size_ratio)); ++k) {
      TuningConfig c = cur;
      c.runs_per_level = k;
      const double pred = PredictObjective(w, c, sys);
      if (pred < best_pred) {
        best_pred = pred;
        best_k = k;
      }
    }
    cur.runs_per_level = best_k;
  }

  // ---------------- Optional round: SST file size.
  if (options_.tune_file_size) {
    const std::vector<uint64_t> candidates = {32 * 1024, 64 * 1024,
                                              128 * 1024};
    std::vector<TuningConfig> round;
    for (uint64_t fb : candidates) {
      TuningConfig c = cur;
      c.file_bytes = fb;
      round.push_back(c);
    }
    CollectSamples(w, round);
    RefitModel();
    double best_pred = std::numeric_limits<double>::infinity();
    uint64_t best_fb = 0;
    for (uint64_t fb : {uint64_t{0}, uint64_t{16 * 1024}, uint64_t{32 * 1024},
                        uint64_t{64 * 1024}, uint64_t{128 * 1024},
                        uint64_t{256 * 1024}}) {
      TuningConfig c = cur;
      c.file_bytes = fb;
      const double pred = PredictObjective(w, c, sys);
      if (pred < best_pred) {
        best_pred = pred;
        best_fb = fb;
      }
    }
    cur.file_bytes = best_fb;
  }

  return cur;
}

}  // namespace camal::tune
