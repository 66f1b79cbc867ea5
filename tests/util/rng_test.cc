#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>
#include <vector>

namespace np::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Uniform(-2.5, 7.25);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 7.25);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Uniform(4.0, 6.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.01);
}

TEST(Rng, NextUint64CoversAllResidues) {
  Rng rng(6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.NextUint64(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsMatch) {
  Rng rng(8);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, LogNormalMedianIsExpMu) {
  Rng rng(9);
  std::vector<double> samples;
  const int n = 100001;
  samples.reserve(n);
  for (int i = 0; i < n; ++i) {
    samples.push_back(rng.LogNormal(std::log(65.0), 0.5));
  }
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  EXPECT_NEAR(samples[n / 2], 65.0, 1.5);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(10);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Exponential(2.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 2.0, 0.02);
}

TEST(Rng, ParetoMomentsAndSupportMatch) {
  Rng rng(21);
  const double shape = 2.5;
  const double scale = 3.0;
  double sum = 0.0;
  const int n = 200000;
  std::vector<double> samples;
  samples.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double v = rng.Pareto(shape, scale);
    EXPECT_GE(v, scale);  // x_m is the distribution's minimum
    sum += v;
    samples.push_back(v);
  }
  // mean = alpha * x_m / (alpha - 1) = 5; the tail makes the sample
  // mean noisy, hence the loose tolerance.
  EXPECT_NEAR(sum / n, shape * scale / (shape - 1.0), 0.1);
  // median = x_m * 2^(1/alpha).
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  EXPECT_NEAR(samples[n / 2], scale * std::pow(2.0, 1.0 / shape), 0.05);
}

TEST(Rng, ParetoTailIsHeavierThanExponential) {
  Rng rng(22);
  // Same mean (= 2) for both; count exceedances of 5x the mean.
  const double mean = 2.0;
  const double shape = 1.5;
  const double scale = mean * (shape - 1.0) / shape;
  const int n = 100000;
  int pareto_tail = 0;
  int exponential_tail = 0;
  for (int i = 0; i < n; ++i) {
    pareto_tail += rng.Pareto(shape, scale) > 5.0 * mean ? 1 : 0;
    exponential_tail += rng.Exponential(mean) > 5.0 * mean ? 1 : 0;
  }
  // P(X > 10) is (x_m/10)^1.5 ~ 1.7% for this Pareto vs e^-5 ~ 0.67%
  // for the exponential.
  EXPECT_GT(pareto_tail, 2 * exponential_tail);
}

TEST(Rng, BernoulliFrequencyMatches) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerateProbabilities) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, SampleReturnsDistinctIndicesInRange) {
  Rng rng(13);
  for (std::size_t k : {0u, 1u, 5u, 50u, 100u}) {
    const auto sample = rng.Sample(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (auto idx : sample) {
      EXPECT_LT(idx, 100u);
    }
  }
}

TEST(Rng, SampleFullRangeIsPermutation) {
  Rng rng(14);
  const auto sample = rng.Sample(20, 20);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
}

/// The std::unordered_set rejection sampler Rng::Sample started from,
/// kept verbatim (Fisher-Yates branch included) as the golden reference
/// for the draws and their order.
std::vector<std::size_t> HashSetSample(Rng& rng, std::size_t n,
                                       std::size_t k) {
  if (k * 4 <= n) {
    std::unordered_set<std::size_t> chosen;
    std::vector<std::size_t> out;
    out.reserve(k);
    while (out.size() < k) {
      std::size_t candidate = rng.Index(n);
      if (chosen.insert(candidate).second) {
        out.push_back(candidate);
      }
    }
    return out;
  }
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) {
    indices[i] = i;
  }
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + rng.Index(n - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

TEST(Rng, SampleMatchesHashSetReference) {
  // Sizes around the k * 4 == n switch between the two branches, k = 0,
  // the 128-of-many draw of a Karger-Ruhl join, and k on both sides of
  // the seen-set's stack capacity (512 slots hold k <= 256; 257 and
  // 1024 take a heap table).
  for (const std::uint64_t seed : {1ULL, 2ULL, 99ULL, 0xdeadbeefULL}) {
    for (const std::size_t n : {0, 1, 4, 5, 20, 64, 100, 512, 513, 100000}) {
      const std::size_t ks[] = {0,   1,   n / 4, n / 4 + 1, n / 2, n,
                                128, 255, 256,   257,       1024};
      for (const std::size_t k : ks) {
        if (k > n) {
          continue;
        }
        Rng actual(seed ^ (n * 131 + k));
        Rng expected(seed ^ (n * 131 + k));
        // Two rounds from one stream: the second starts from the state
        // the first left behind, so a differing draw count shows too.
        for (int round = 0; round < 2; ++round) {
          const auto got = actual.Sample(n, k);
          const auto want = HashSetSample(expected, n, k);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << "n=" << n << " k=" << k << " seed=" << seed
                << " round=" << round << " i=" << i;
          }
        }
        EXPECT_EQ(actual(), expected()) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(15);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(16);
  EXPECT_THROW(rng.Uniform(2.0, 1.0), Error);
  EXPECT_THROW(rng.NextUint64(0), Error);
  EXPECT_THROW(rng.Exponential(0.0), Error);
  EXPECT_THROW(rng.Index(0), Error);
  EXPECT_THROW(rng.Sample(3, 4), Error);
}

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(12345), Mix64(12345));
  EXPECT_NE(Mix64(12345), Mix64(12346));
}

}  // namespace
}  // namespace np::util
