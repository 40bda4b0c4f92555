#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "lsm/bloom.h"
#include "lsm/monkey.h"
#include "util/random.h"

namespace camal::lsm {
namespace {

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter filter(1000, 10.0);
  for (uint64_t k = 0; k < 1000; ++k) filter.Add(k * 7 + 1);
  for (uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(filter.MayContain(k * 7 + 1));
}

TEST(BloomTest, FprCloseToTheory) {
  const double bpk = 10.0;
  BloomFilter filter(5000, bpk);
  for (uint64_t k = 0; k < 5000; ++k) filter.Add(k * 2);
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) fp += filter.MayContain(2 * i + 1);
  const double fpr = static_cast<double>(fp) / probes;
  const double theory = filter.TheoreticalFpr();
  EXPECT_NEAR(fpr, theory, theory * 1.0 + 0.003);
  EXPECT_LT(fpr, 0.03);
}

TEST(BloomTest, MoreBitsFewerFalsePositives) {
  BloomFilter small(2000, 4.0), big(2000, 12.0);
  for (uint64_t k = 0; k < 2000; ++k) {
    small.Add(k * 2);
    big.Add(k * 2);
  }
  int fp_small = 0, fp_big = 0;
  for (int i = 0; i < 10000; ++i) {
    fp_small += small.MayContain(2 * i + 1);
    fp_big += big.MayContain(2 * i + 1);
  }
  EXPECT_GT(fp_small, fp_big);
}

TEST(BloomTest, AbsentFilterAlwaysTrue) {
  BloomFilter absent;
  EXPECT_TRUE(absent.absent());
  EXPECT_TRUE(absent.MayContain(42));
  EXPECT_EQ(absent.memory_bits(), 0u);
  EXPECT_DOUBLE_EQ(absent.TheoreticalFpr(), 1.0);
}

TEST(BloomTest, TinyBpkDegeneratesToAbsent) {
  BloomFilter filter(1000, 0.2);
  EXPECT_TRUE(filter.absent());
  EXPECT_TRUE(filter.MayContain(1));
}

TEST(BloomTest, MemorySizedByBpk) {
  BloomFilter filter(1000, 8.0);
  EXPECT_NEAR(static_cast<double>(filter.memory_bits()), 8000.0, 64.0);
  EXPECT_DOUBLE_EQ(filter.bits_per_key(), 8.0);
}

TEST(MonkeyTest, BudgetRoughlyConsumed) {
  const std::vector<uint64_t> levels = {1000, 10000, 100000};
  const double budget = 10.0 * 111000;
  const std::vector<double> bpk = MonkeyAllocate(budget, levels);
  double used = 0.0;
  for (size_t i = 0; i < levels.size(); ++i) {
    used += bpk[i] * static_cast<double>(levels[i]);
  }
  EXPECT_NEAR(used, budget, budget * 0.01);
}

TEST(MonkeyTest, DeeperLevelsFewerBitsPerKey) {
  const std::vector<uint64_t> levels = {1000, 10000, 100000};
  const std::vector<double> bpk = MonkeyAllocate(10.0 * 111000, levels);
  EXPECT_GT(bpk[0], bpk[1]);
  EXPECT_GT(bpk[1], bpk[2]);
}

TEST(MonkeyTest, TinyBudgetDropsDeepFilters) {
  const std::vector<uint64_t> levels = {100, 1000, 100000};
  const std::vector<double> bpk = MonkeyAllocate(2000.0, levels);
  // The deepest level is too big to filter with such a small budget.
  EXPECT_EQ(bpk[2], 0.0);
  EXPECT_GT(bpk[0], 0.0);
}

TEST(MonkeyTest, ZeroBudgetAllZero) {
  const std::vector<double> bpk = MonkeyAllocate(0.0, {100, 1000});
  EXPECT_EQ(bpk[0], 0.0);
  EXPECT_EQ(bpk[1], 0.0);
}

TEST(MonkeyTest, EmptyLevelsIgnored) {
  const std::vector<double> bpk = MonkeyAllocate(10000.0, {0, 1000, 0});
  EXPECT_EQ(bpk[0], 0.0);
  EXPECT_EQ(bpk[2], 0.0);
  EXPECT_NEAR(bpk[1], 10.0, 0.1);
}

TEST(MonkeyTest, ZeroResultCostDecreasesWithBudget) {
  const std::vector<uint64_t> levels = {1000, 10000, 100000};
  const double lo = MonkeyZeroResultIoCost(1.0 * 111000, levels);
  const double mid = MonkeyZeroResultIoCost(5.0 * 111000, levels);
  const double hi = MonkeyZeroResultIoCost(12.0 * 111000, levels);
  EXPECT_GT(lo, mid);
  EXPECT_GT(mid, hi);
}

TEST(MonkeyTest, MonkeyBeatsUniformAllocation) {
  // The Monkey allocation should yield no more expected false-positive I/O
  // than uniform bits-per-key across levels.
  const std::vector<uint64_t> levels = {500, 5000, 50000};
  const double total_entries = 55500;
  const double budget = 8.0 * total_entries;
  const double monkey_cost = MonkeyZeroResultIoCost(budget, levels);
  constexpr double kLn2Sq = 0.4804530139182014;
  double uniform_cost = 0.0;
  for (uint64_t n : levels) {
    (void)n;
    uniform_cost += std::exp(-8.0 * kLn2Sq);
  }
  EXPECT_LE(monkey_cost, uniform_cost + 1e-9);
}

// The bisection as it ran before it learned to stop at its fixed point:
// always 200 log-space steps. Kept verbatim so the early stop in
// MonkeyAllocate can be checked against it.
std::vector<double> MonkeyAllocate200Steps(
    double total_bits, const std::vector<uint64_t>& level_entries) {
  constexpr double kLn2Sq = 0.4804530139182014;
  auto bits_for_mu = [&](double mu) {
    double bits = 0.0;
    for (uint64_t n : level_entries) {
      if (n == 0) continue;
      const double p = mu * static_cast<double>(n);
      if (p >= 1.0) continue;
      bits += static_cast<double>(n) * (-std::log(p)) / kLn2Sq;
    }
    return bits;
  };
  std::vector<double> bpk(level_entries.size(), 0.0);
  if (total_bits <= 0.0) return bpk;
  bool any = false;
  for (uint64_t n : level_entries) any |= (n > 0);
  if (!any) return bpk;
  double lo = 1e-30, hi = 1e+6;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = std::sqrt(lo * hi);
    if (bits_for_mu(mid) > total_bits) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double mu = std::sqrt(lo * hi);
  for (size_t i = 0; i < level_entries.size(); ++i) {
    const uint64_t n = level_entries[i];
    if (n == 0) continue;
    const double p = mu * static_cast<double>(n);
    if (p >= 1.0) continue;
    bpk[i] = -std::log(p) / kLn2Sq;
  }
  return bpk;
}

TEST(MonkeyTest, EarlyStopMatches200StepBisectionBitForBit) {
  util::Random rng(2024);
  constexpr int kVectors = 120000;
  for (int v = 0; v < kVectors; ++v) {
    // 0..8 levels; a quarter of them empty; sizes spread over 1..1e9.
    std::vector<uint64_t> levels(rng.Uniform(9));
    double total_entries = 0.0;
    for (uint64_t& n : levels) {
      if (rng.Bernoulli(0.25)) continue;
      n = static_cast<uint64_t>(std::pow(10.0, 9.0 * rng.NextDouble())) + 1;
      total_entries += static_cast<double>(n);
    }
    double budget = 0.0;
    switch (rng.Uniform(5)) {
      case 0:  // zero or negative
        budget = rng.Bernoulli(0.5) ? 0.0 : -1.0;
        break;
      case 1:  // tiny: a few bits in total
        budget = 16.0 * rng.NextDouble();
        break;
      case 2:  // huge: far past any useful bits-per-key
        budget = 1e6 * (total_entries + 1.0) * (1.0 + rng.NextDouble());
        break;
      default:  // the usual range, 0..24 bits per key
        budget = 24.0 * rng.NextDouble() * total_entries;
        break;
    }
    const std::vector<double> got = MonkeyAllocate(budget, levels);
    const std::vector<double> want = MonkeyAllocate200Steps(budget, levels);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "vector " << v << " level " << i
                                 << " budget " << budget;
    }
  }
}

}  // namespace
}  // namespace camal::lsm
