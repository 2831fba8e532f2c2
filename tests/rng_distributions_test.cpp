#include "rng/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>

#include "rng/xoshiro256.hpp"
#include "rng/philox.hpp"
#include "rng/round_rng.hpp"
#include "rng/zipf.hpp"
#include "stats/ttest.hpp"

namespace qoslb {
namespace {

TEST(UniformBelow, ZeroBoundReturnsZero) {
  Xoshiro256 rng(1);
  EXPECT_EQ(uniform_u64_below(rng, 0), 0u);
}

TEST(UniformBelow, OneBoundReturnsZero) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(uniform_u64_below(rng, 1), 0u);
}

class UniformBelowBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniformBelowBound, StaysInRangeAndHitsAllValues) {
  const std::uint64_t bound = GetParam();
  Xoshiro256 rng(bound);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = uniform_u64_below(rng, bound);
    ASSERT_LT(v, bound);
    seen.insert(v);
  }
  if (bound <= 16) {
    EXPECT_EQ(seen.size(), bound);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, UniformBelowBound,
                         ::testing::Values(2, 3, 7, 10, 16, 1000, 1ULL << 40));

TEST(UniformBelow, IsRoughlyUniform) {
  Xoshiro256 rng(7);
  std::array<int, 8> counts{};
  const int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[uniform_u64_below(rng, 8)];
  for (const int c : counts) EXPECT_NEAR(c, kDraws / 8, 600);
}

TEST(UniformInt, InclusiveEndpoints) {
  Xoshiro256 rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = uniform_int(rng, -2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(UniformReal, UnitIntervalAndMean) {
  Xoshiro256 rng(11);
  double sum = 0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const double u = uniform_real(rng);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(UniformReal, CustomRange) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = uniform_real(rng, 3.0, 5.0);
    ASSERT_GE(v, 3.0);
    ASSERT_LT(v, 5.0);
  }
}

class BernoulliP : public ::testing::TestWithParam<double> {};

TEST_P(BernoulliP, EmpiricalRateMatches) {
  const double p = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(p * 1e6) + 1);
  int hits = 0;
  const int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i)
    if (bernoulli(rng, p)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, p, 0.015);
}

INSTANTIATE_TEST_SUITE_P(Rates, BernoulliP,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.9, 1.0));

TEST(Bernoulli, DegenerateProbabilities) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(bernoulli(rng, 0.0));
    EXPECT_TRUE(bernoulli(rng, 1.0));
    EXPECT_FALSE(bernoulli(rng, -0.5));
    EXPECT_TRUE(bernoulli(rng, 1.5));
  }
}

TEST(Geometric, MeanMatchesTheory) {
  Xoshiro256 rng(17);
  const double p = 0.25;
  double sum = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(geometric(rng, p));
  // Mean failures before success = (1-p)/p = 3.
  EXPECT_NEAR(sum / kDraws, 3.0, 0.15);
}

TEST(Exponential, MeanMatchesRate) {
  Xoshiro256 rng(19);
  const double lambda = 2.0;
  double sum = 0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += exponential(rng, lambda);
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
}

TEST(Poisson, MeanAndNonNegativity) {
  Xoshiro256 rng(23);
  const double mean = 4.0;
  double sum = 0;
  const int kDraws = 30000;
  for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(poisson(rng, mean));
  EXPECT_NEAR(sum / kDraws, mean, 0.1);
}

TEST(Discrete, FollowsWeights) {
  Xoshiro256 rng(29);
  const double weights[] = {1.0, 3.0, 0.0, 4.0};
  std::array<int, 4> counts{};
  const int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i)
    ++counts[discrete(rng, std::span<const double>(weights, 4))];
  EXPECT_NEAR(counts[0], kDraws / 8, 500);
  EXPECT_NEAR(counts[1], 3 * kDraws / 8, 700);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3], kDraws / 2, 700);
}

TEST(Discrete, AllZeroWeightsThrow) {
  Xoshiro256 rng(1);
  const double weights[] = {0.0, 0.0};
  EXPECT_THROW(discrete(rng, std::span<const double>(weights, 2)),
               std::invalid_argument);
}

TEST(Shuffle, IsAPermutation) {
  Xoshiro256 rng(31);
  std::vector<int> items(100);
  for (int i = 0; i < 100; ++i) items[i] = i;
  shuffle(rng, items);
  std::vector<int> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Shuffle, ActuallyPermutes) {
  Xoshiro256 rng(37);
  std::vector<int> items(64);
  for (int i = 0; i < 64; ++i) items[i] = i;
  shuffle(rng, items);
  int moved = 0;
  for (int i = 0; i < 64; ++i)
    if (items[i] != i) ++moved;
  EXPECT_GT(moved, 32);
}

TEST(SampleWithoutReplacement, DistinctAndInRange) {
  Xoshiro256 rng(41);
  std::vector<std::size_t> sample;
  for (int trial = 0; trial < 50; ++trial) {
    sample_without_replacement(rng, 20, 8, sample);
    ASSERT_EQ(sample.size(), 8u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    for (const std::size_t v : sample) EXPECT_LT(v, 20u);
  }
}

TEST(SampleWithoutReplacement, KEqualsNCoversEverything) {
  Xoshiro256 rng(43);
  std::vector<std::size_t> sample;
  sample_without_replacement(rng, 10, 10, sample);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

// The Floyd loop's draws and their order, pinned: churn and the clustered
// generator realize their worlds through them.
TEST(SampleWithoutReplacement, DrawsArePinned) {
  Xoshiro256 rng(53);
  std::vector<std::size_t> sample;
  sample_without_replacement(rng, 20, 8, sample);
  EXPECT_EQ(sample, (std::vector<std::size_t>{5, 10, 2, 6, 16, 4, 12, 0}));
  sample_without_replacement(rng, 6, 6, sample);
  EXPECT_EQ(sample, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(rng(), 18196564361467084634ULL);
}

TEST(SampleWithoutReplacement, KLargerThanNClamped) {
  Xoshiro256 rng(47);
  std::vector<std::size_t> sample = {7, 7, 7};  // replaced, not appended to
  sample_without_replacement(rng, 5, 9, sample);
  EXPECT_EQ(sample.size(), 5u);
  sample_without_replacement(rng, 5, 0, sample);
  EXPECT_TRUE(sample.empty());
}

TEST(Zipf, PmfSumsToOne) {
  const ZipfSampler zipf(20, 1.2);
  double total = 0;
  for (std::size_t k = 0; k < zipf.size(); ++k) total += zipf.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, RankZeroMostLikely) {
  const ZipfSampler zipf(10, 1.0);
  for (std::size_t k = 1; k < zipf.size(); ++k)
    EXPECT_GT(zipf.pmf(0), zipf.pmf(k));
}

TEST(Zipf, ExponentZeroIsUniform) {
  const ZipfSampler zipf(8, 0.0);
  for (std::size_t k = 0; k < 8; ++k) EXPECT_NEAR(zipf.pmf(k), 0.125, 1e-12);
}

TEST(Zipf, SamplesFollowPmf) {
  const ZipfSampler zipf(5, 1.5);
  Xoshiro256 rng(53);
  std::array<int, 5> counts{};
  const int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf(rng)];
  for (std::size_t k = 0; k < 5; ++k)
    EXPECT_NEAR(static_cast<double>(counts[k]) / kDraws, zipf.pmf(k), 0.01);
}

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(5, -0.1), std::invalid_argument);
}


TEST(UniformBelow, PassesChiSquareGoodnessOfFit) {
  Xoshiro256 rng(12345);
  constexpr std::size_t kCells = 32;
  constexpr int kDraws = 64000;
  std::vector<double> observed(kCells, 0.0);
  for (int i = 0; i < kDraws; ++i)
    observed[uniform_u64_below(rng, kCells)] += 1.0;
  const std::vector<double> expected(kCells, double(kDraws) / kCells);
  const ChiSquareResult result = chi_square_test(observed, expected);
  EXPECT_GT(result.p_value, 0.001);
}

TEST(PhiloxStream, PassesChiSquareGoodnessOfFit) {
  PhiloxEngine rng = RoundRng(999, 0).user_stream(0);
  constexpr std::size_t kCells = 32;
  constexpr int kDraws = 64000;
  std::vector<double> observed(kCells, 0.0);
  for (int i = 0; i < kDraws; ++i)
    observed[uniform_u64_below(rng, kCells)] += 1.0;
  const std::vector<double> expected(kCells, double(kDraws) / kCells);
  EXPECT_GT(chi_square_test(observed, expected).p_value, 0.001);
}

}  // namespace
}  // namespace qoslb
