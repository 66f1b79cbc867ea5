// Deterministic random number generation.
//
// Every stochastic component in the reproduction takes an explicit Rng
// (or a seed) so that experiments are bit-for-bit reproducible. The
// engine is xoshiro256** seeded via splitmix64, which is fast, has a
// 256-bit state, and passes BigCrush — more than adequate for
// simulation workloads and far cheaper than std::mt19937_64.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.h"

namespace np::util {

/// splitmix64 step; used for seeding and for cheap hash mixing.
std::uint64_t SplitMix64(std::uint64_t& state);

/// Stateless 64-bit mix of a value (finalizer of splitmix64). Useful to
/// derive independent child seeds: Mix64(seed ^ kSomeTag).
std::uint64_t Mix64(std::uint64_t x);

/// Order-independent key of an unordered node pair: (min << 32) | max.
/// `Mix64(seed ^ PairKey(a, b))` yields symmetric per-pair randomness —
/// the same stream no matter which endpoint probes (the implicit
/// latency backends and NoisySpace both key on it). Ids must be
/// non-negative and fit 32 bits, which NodeId guarantees.
inline std::uint64_t PairKey(std::int64_t a, std::int64_t b) {
  const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
  const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
  return (lo << 32) | hi;
}

/// Maps a mixed 64-bit value to a uniform double in [0, 1) (53 high
/// bits, same construction as Rng::NextDouble). For one-shot
/// hash-derived uniforms where building an Rng would be overkill.
inline double MixToUnit(std::uint64_t mixed) {
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

/// xoshiro256** engine with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator so it can also be used with
/// <random> distributions and std::shuffle.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from splitmix64(seed).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Raw 64 bits.
  result_type operator()();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t NextUint64(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (cached spare).
  double Gaussian();

  /// Normal with the given mean / standard deviation.
  double Gaussian(double mean, double stddev);

  /// Log-normal: exp(N(mu, sigma)). Parameters are of the underlying
  /// normal, i.e. median of the result is exp(mu).
  double LogNormal(double mu, double sigma);

  /// Exponential with the given mean (= 1/lambda). Requires mean > 0.
  double Exponential(double mean);

  /// Pareto (type I) with the given shape alpha and scale (minimum)
  /// x_m: P(X > x) = (x_m / x)^alpha for x >= x_m. Heavy-tailed; the
  /// mean is alpha * x_m / (alpha - 1) and only finite for alpha > 1.
  /// Requires shape > 0 and scale > 0.
  double Pareto(double shape, double scale);

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Uniformly chosen index into a container of the given size (> 0).
  std::size_t Index(std::size_t size);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = Index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n). Requires k <= n.
  /// When k * 4 <= n, draws with rejection against an open-addressing
  /// seen-set of at least 2k slots: O(k) expected work, and no
  /// allocation beyond the result while k <= 256 (the table then fits
  /// on the stack). Otherwise a partial Fisher-Yates over [0, n). Both
  /// branches return the draws in draw order.
  std::vector<std::size_t> Sample(std::size_t n, std::size_t k);

 private:
  std::uint64_t s_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace np::util
