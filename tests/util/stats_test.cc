#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace np::util {
namespace {

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 50), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 100), 7.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 10.0);
}

TEST(Percentile, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(Percentile({5.0, 1.0, 3.0, 2.0, 4.0}, 50), 3.0);
}

TEST(Percentile, InvalidInputsThrow) {
  EXPECT_THROW(Percentile({}, 50), Error);
  EXPECT_THROW(Percentile({1.0}, -1), Error);
  EXPECT_THROW(Percentile({1.0}, 101), Error);
}

TEST(SummaryStats, KnownSample) {
  const Summary s = Summary::Of({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  // Sample stddev of this classic dataset: sqrt(32/7).
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(SummaryStats, SingleValueHasZeroStddev) {
  const Summary s = Summary::Of({3.0});
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.p5, 3.0);
  EXPECT_DOUBLE_EQ(s.p95, 3.0);
}

TEST(CdfStats, FractionAndCount) {
  const Cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(4.0), 1.0);
  EXPECT_EQ(cdf.CountAtOrBelow(3.0), 3u);
}

TEST(CdfStats, EmptyThrows) {
  EXPECT_THROW(Cdf({}), Error);
}

TEST(BinnedScatterStats, GroupsSamplesByX) {
  auto scatter = BinnedScatter::LinearBins(0.0, 10.0, 2);
  scatter.Add(1.0, 10.0);
  scatter.Add(2.0, 20.0);
  scatter.Add(8.0, 100.0);
  const auto bins = scatter.Bins();
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_EQ(bins[0].count, 2u);
  EXPECT_DOUBLE_EQ(bins[0].median, 15.0);
  EXPECT_EQ(bins[1].count, 1u);
  EXPECT_DOUBLE_EQ(bins[1].median, 100.0);
}

TEST(BinnedScatterStats, OutOfRangeSamplesClampToEdgeBins) {
  auto scatter = BinnedScatter::LinearBins(0.0, 10.0, 2);
  scatter.Add(-5.0, 1.0);
  scatter.Add(50.0, 2.0);
  const auto bins = scatter.Bins();
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_EQ(bins[0].count, 1u);
  EXPECT_EQ(bins[1].count, 1u);
}

TEST(BinnedScatterStats, LogBinsUseGeometricCenters) {
  auto scatter = BinnedScatter::LogBins(1.0, 100.0, 2);
  scatter.Add(5.0, 1.0);
  const auto bins = scatter.Bins();
  ASSERT_EQ(bins.size(), 1u);
  // First log bin spans [1, 10); geometric center sqrt(10).
  EXPECT_NEAR(bins[0].x_representative, std::sqrt(10.0), 1e-9);
}

TEST(BinnedScatterStats, EmptyBinsSkipped) {
  auto scatter = BinnedScatter::LinearBins(0.0, 30.0, 3);
  scatter.Add(25.0, 1.0);
  const auto bins = scatter.Bins();
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_DOUBLE_EQ(bins[0].x_representative, 25.0);
}

TEST(BinnedScatterStats, PercentilesWithinBin) {
  auto scatter = BinnedScatter::LinearBins(0.0, 1.0, 1);
  for (int i = 0; i <= 100; ++i) {
    scatter.Add(0.5, static_cast<double>(i));
  }
  const auto bins = scatter.Bins();
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_DOUBLE_EQ(bins[0].p5, 5.0);
  EXPECT_DOUBLE_EQ(bins[0].p25, 25.0);
  EXPECT_DOUBLE_EQ(bins[0].median, 50.0);
  EXPECT_DOUBLE_EQ(bins[0].p75, 75.0);
  EXPECT_DOUBLE_EQ(bins[0].p95, 95.0);
}

TEST(BinnedScatterStats, InvalidConstructionThrows) {
  EXPECT_THROW(BinnedScatter::LogBins(0.0, 10.0, 2), Error);
  EXPECT_THROW(BinnedScatter::LogBins(10.0, 10.0, 2), Error);
  EXPECT_THROW(BinnedScatter::LinearBins(5.0, 1.0, 2), Error);
}

TEST(KsStats, IdenticalSamplesHaveZeroDistance) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(KolmogorovSmirnov(v, v), 0.0);
}

TEST(KsStats, DisjointSamplesHaveDistanceOne) {
  EXPECT_DOUBLE_EQ(KolmogorovSmirnov({1.0, 2.0}, {10.0, 20.0}), 1.0);
}

TEST(KsStats, KnownHalfOverlap) {
  // a = {1,2}, b = {2,3}: after x=1, F_a=0.5, F_b=0 -> distance 0.5.
  EXPECT_DOUBLE_EQ(KolmogorovSmirnov({1.0, 2.0}, {2.0, 3.0}), 0.5);
}

TEST(KsStats, ShiftSensitive) {
  std::vector<double> base;
  std::vector<double> shifted;
  for (int i = 0; i < 1000; ++i) {
    base.push_back(i);
    shifted.push_back(i + 100.0);
  }
  const double d_small = KolmogorovSmirnov(base, base);
  const double d_big = KolmogorovSmirnov(base, shifted);
  EXPECT_LT(d_small, d_big);
  EXPECT_NEAR(d_big, 0.1, 0.01);
}

TEST(KsStats, EmptyThrows) {
  EXPECT_THROW(KolmogorovSmirnov({}, {1.0}), Error);
  EXPECT_THROW(KolmogorovSmirnov({1.0}, {}), Error);
}

TEST(RunSpreadStats, MedianMinMax) {
  const RunSpread s = RunSpread::Of({0.3, 0.1, 0.2});
  EXPECT_DOUBLE_EQ(s.min, 0.1);
  EXPECT_DOUBLE_EQ(s.median, 0.2);
  EXPECT_DOUBLE_EQ(s.max, 0.3);
}

TEST(RunSpreadStats, EmptyThrows) {
  EXPECT_THROW(RunSpread::Of({}), Error);
}

TEST(Gini, UniformSampleIsPerfectlyEqual) {
  EXPECT_DOUBLE_EQ(Gini({5.0, 5.0, 5.0, 5.0}), 0.0);
  EXPECT_DOUBLE_EQ(Gini({1.0}), 0.0);
}

TEST(Gini, FullyConcentratedSampleApproachesOne) {
  // One holder of all mass: G = (n - 1) / n.
  EXPECT_NEAR(Gini({0.0, 0.0, 0.0, 4.0}), 0.75, 1e-12);
  EXPECT_NEAR(Gini({0.0, 10.0}), 0.5, 1e-12);
  std::vector<double> big(100, 0.0);
  big.back() = 7.0;
  EXPECT_NEAR(Gini(std::move(big)), 0.99, 1e-12);
}

TEST(Gini, KnownMixedSample) {
  // Sorted {1, 2, 3, 4}: G = 2*(1+4+9+16)/(4*10) - 5/4 = 0.25.
  EXPECT_NEAR(Gini({4.0, 1.0, 3.0, 2.0}), 0.25, 1e-12);
}

TEST(Gini, DegenerateSamplesAreZeroNegativeThrows) {
  EXPECT_DOUBLE_EQ(Gini({}), 0.0);
  EXPECT_DOUBLE_EQ(Gini({0.0, 0.0, 0.0}), 0.0);
  EXPECT_THROW(Gini({1.0, -0.5}), Error);
}

}  // namespace
}  // namespace np::util
