#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"
#include "stats/bootstrap.hpp"
#include "stats/histogram.hpp"
#include "stats/quantile.hpp"
#include "stats/regression.hpp"
#include "stats/replication.hpp"
#include "stats/summary.hpp"

namespace qoslb {
namespace {

TEST(RunningStat, MatchesNaiveFormulas) {
  RunningStat stat;
  const std::vector<double> data = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (const double x : data) stat.add(x);
  EXPECT_EQ(stat.count(), data.size());
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
  EXPECT_NEAR(stat.sum(), 40.0, 1e-12);
}

TEST(RunningStat, EmptyIsSafe) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  EXPECT_TRUE(std::isnan(stat.min()));
}

TEST(RunningStat, SingleValue) {
  RunningStat stat;
  stat.add(3.5);
  EXPECT_DOUBLE_EQ(stat.mean(), 3.5);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stat.stddev(), 0.0);
}

TEST(RunningStat, MergeEqualsSequential) {
  Xoshiro256 rng(1);
  RunningStat whole, left, right;
  for (int i = 0; i < 500; ++i) {
    const double x = uniform_real(rng, -5, 5);
    whole.add(x);
    (i < 200 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(Quantile, KnownValues) {
  const std::vector<double> data = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(data, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(data, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(data, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(data, 0.25), 2.0);
  // Type-7 interpolation: q=0.1 over 5 points -> h=0.4 -> 1.4.
  EXPECT_NEAR(quantile(data, 0.1), 1.4, 1e-12);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> data = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(median(data), 3.0);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> data = {7.0};
  EXPECT_DOUBLE_EQ(quantile(data, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile(data, 0.9), 7.0);
}

TEST(Quantile, RejectsEmptyAndBadQ) {
  const std::vector<double> empty;
  EXPECT_THROW(quantile(empty, 0.5), std::invalid_argument);
  const std::vector<double> data = {1.0};
  EXPECT_THROW(quantile(data, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(data, 1.1), std::invalid_argument);
}

TEST(Iqr, KnownSpread) {
  const std::vector<double> data = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_DOUBLE_EQ(iqr(data), 4.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);   // bucket 0
  h.add(1.9);   // bucket 0
  h.add(2.0);   // bucket 1
  h.add(9.99);  // bucket 4
  h.add(-1.0);  // underflow -> bucket 0
  h.add(10.0);  // overflow -> bucket 4
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, BucketEdges) {
  Histogram h(2.0, 4.0, 4);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 2.5);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 3.5);
}

TEST(Histogram, RenderMentionsCounts) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25);
  h.add(0.75);
  h.add(0.8);
  const std::string text = h.render();
  EXPECT_NE(text.find("#"), std::string::npos);
  EXPECT_NE(text.find("2"), std::string::npos);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(HistogramQuantile, EmptyReturnsLo) {
  Histogram h(2.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 2.0);
}

TEST(HistogramQuantile, SingleBucketInterpolatesLinearly) {
  Histogram h(0.0, 1.0, 1);
  for (int i = 0; i < 100; ++i) h.add(0.5);
  // All mass in the one bucket: the quantile sweeps its width linearly.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.99);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
}

TEST(HistogramQuantile, KnownPercentilesOnUniformFill) {
  Histogram h(0.0, 100.0, 100);
  // One sample per unit bucket: the empirical CDF is the identity, so
  // p50/p99/p999 read straight off the axis (within one bucket width).
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
  EXPECT_NEAR(h.quantile(0.999), 99.9, 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(HistogramQuantile, SaturatedHistogramClampsToTheRangeEdges) {
  Histogram h(0.0, 10.0, 5);
  // Everything out of range: overflow reads as hi, underflow as lo — p999 of
  // a saturated histogram is the range edge, not an extrapolation.
  for (int i = 0; i < 90; ++i) h.add(1000.0);
  for (int i = 0; i < 10; ++i) h.add(-1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.05), 0.0);
  // The edge buckets' counts include the clamped mass, but an in-range
  // sample still interpolates within its own bucket: rank 10.5 of 101 sits
  // halfway through the single [8,10) sample.
  h.add(9.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.09), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(10.5 / 101.0), 9.0);
}

TEST(HistogramQuantile, MixedInRangeAndOverflow) {
  Histogram h(0.0, 8.0, 4);
  h.add(1.0);   // bucket [0,2)
  h.add(3.0);   // bucket [2,4)
  h.add(5.0);   // bucket [4,6)
  h.add(99.0);  // overflow -> reads as 8
  // Rank 3 of 4 lands at the top of the third bucket; rank 4 is overflow.
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 6.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.0);
}

TEST(HistogramQuantile, RejectsOutOfRangeOrder) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.5);
  EXPECT_THROW(h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(h.quantile(1.1), std::invalid_argument);
}

TEST(Regression, ExactLine) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {3, 5, 7, 9};  // y = 1 + 2x
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Regression, NoisyLineStillCloseFit) {
  Xoshiro256 rng(5);
  std::vector<double> x, y;
  for (int i = 1; i <= 200; ++i) {
    x.push_back(i);
    y.push_back(4.0 - 0.5 * i + uniform_real(rng, -0.1, 0.1));
  }
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, -0.5, 0.01);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(Regression, ConstantXDegenerates) {
  const std::vector<double> x = {2, 2, 2};
  const std::vector<double> y = {1, 2, 3};
  const LinearFit fit = fit_linear(x, y);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(Regression, Log2FitRecognizesLogGrowth) {
  std::vector<double> x, y;
  for (int k = 3; k <= 16; ++k) {
    x.push_back(std::pow(2.0, k));
    y.push_back(5.0 + 1.5 * k);  // y = 5 + 1.5 log2(x)
  }
  const LinearFit fit = fit_log2(x, y);
  EXPECT_NEAR(fit.slope, 1.5, 1e-9);
  EXPECT_NEAR(fit.intercept, 5.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Regression, PowerFitRecoversExponent) {
  std::vector<double> x, y;
  for (int k = 1; k <= 12; ++k) {
    const double v = std::pow(2.0, k);
    x.push_back(v);
    y.push_back(3.0 * v * v);  // y = 3 x^2
  }
  const LinearFit fit = fit_power(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(std::pow(2.0, fit.intercept), 3.0, 1e-6);
}

TEST(Regression, RejectsBadInput) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW(fit_linear(one, one), std::invalid_argument);
  const std::vector<double> x = {0.0, 1.0};
  const std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(fit_log2(x, y), std::invalid_argument);
}

TEST(Bootstrap, CoversTrueMeanOfTightSample) {
  std::vector<double> sample(100, 5.0);
  for (std::size_t i = 0; i < sample.size(); ++i)
    sample[i] += (i % 2 == 0 ? 0.01 : -0.01);
  const ConfidenceInterval ci = bootstrap_mean_ci(sample);
  EXPECT_NEAR(ci.point, 5.0, 1e-9);
  EXPECT_LE(ci.lo, 5.0);
  EXPECT_GE(ci.hi, 5.0);
  EXPECT_LT(ci.hi - ci.lo, 0.01);
}

TEST(Bootstrap, WidensWithVariance) {
  Xoshiro256 rng(9);
  std::vector<double> tight, wide;
  for (int i = 0; i < 200; ++i) {
    tight.push_back(uniform_real(rng, 4.9, 5.1));
    wide.push_back(uniform_real(rng, 0.0, 10.0));
  }
  const auto ci_tight = bootstrap_mean_ci(tight);
  const auto ci_wide = bootstrap_mean_ci(wide);
  EXPECT_LT(ci_tight.hi - ci_tight.lo, ci_wide.hi - ci_wide.lo);
}

TEST(Bootstrap, RejectsBadArguments) {
  const std::vector<double> empty;
  EXPECT_THROW(bootstrap_mean_ci(empty), std::invalid_argument);
  const std::vector<double> one = {1.0};
  EXPECT_THROW(bootstrap_mean_ci(one, 1.5), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci(one, 0.05, 3), std::invalid_argument);
}

TEST(Replicate, DeterministicAcrossCalls) {
  const auto body = [](std::uint64_t seed) {
    Xoshiro256 rng(seed);
    return uniform_real(rng);
  };
  const auto a = replicate(42, 16, body);
  const auto b = replicate(42, 16, body);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(Replicate, EachSampleDependsOnlyOnItsIndex) {
  const auto body = [](std::uint64_t seed) {
    Xoshiro256 rng(seed);
    double acc = 0;
    for (int i = 0; i < 100; ++i) acc += uniform_real(rng);
    return acc;
  };
  const auto full = replicate(7, 24, body);
  ASSERT_EQ(full.samples.size(), 24u);
  for (std::size_t i = 0; i < full.samples.size(); ++i)
    EXPECT_EQ(full.samples[i], body(derive_seed(7, i))) << "replication " << i;
  // A shorter run is a prefix of a longer one.
  const auto prefix = replicate(7, 8, body);
  EXPECT_EQ(prefix.samples, std::vector<double>(full.samples.begin(),
                                                full.samples.begin() + 8));
}

TEST(Replicate, AggregatesIntoStat) {
  const auto r = replicate(1, 10, [](std::uint64_t) { return 2.0; });
  EXPECT_EQ(r.stat.count(), 10u);
  EXPECT_DOUBLE_EQ(r.stat.mean(), 2.0);
}

TEST(Replicate, RejectsZeroReplications) {
  EXPECT_THROW(replicate(1, 0, [](std::uint64_t) { return 0.0; }),
               std::invalid_argument);
}

}  // namespace
}  // namespace qoslb
