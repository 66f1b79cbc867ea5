#include "util/rng.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numbers>

namespace np::util {

namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Mix64(std::uint64_t x) {
  std::uint64_t state = x;
  return SplitMix64(state);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = SplitMix64(sm);
  }
  // xoshiro must not start from the all-zero state; splitmix64 cannot
  // produce four consecutive zeros, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1) double.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  NP_ENSURE(lo <= hi, "Uniform requires lo <= hi");
  return lo + (hi - lo) * NextDouble();
}

std::uint64_t Rng::NextUint64(std::uint64_t n) {
  NP_ENSURE(n > 0, "NextUint64 requires n > 0");
  // Lemire-style rejection: unbiased without division in the hot path.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) {
      return r % n;
    }
  }
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  NP_ENSURE(lo <= hi, "UniformInt requires lo <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(NextUint64(span));
}

double Rng::Gaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  spare_gaussian_ = radius * std::sin(angle);
  has_spare_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Gaussian(mu, sigma));
}

double Rng::Exponential(double mean) {
  NP_ENSURE(mean > 0.0, "Exponential requires mean > 0");
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::Pareto(double shape, double scale) {
  NP_ENSURE(shape > 0.0, "Pareto requires shape > 0");
  NP_ENSURE(scale > 0.0, "Pareto requires scale > 0");
  // Inverse-CDF: x_m * U^(-1/alpha) with U in (0, 1].
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return scale * std::pow(u, -1.0 / shape);
}

bool Rng::Bernoulli(double p) {
  const double clamped = std::clamp(p, 0.0, 1.0);
  return NextDouble() < clamped;
}

std::size_t Rng::Index(std::size_t size) {
  NP_ENSURE(size > 0, "Index requires a non-empty range");
  return static_cast<std::size_t>(NextUint64(size));
}

std::vector<std::size_t> Rng::Sample(std::size_t n, std::size_t k) {
  NP_ENSURE(k <= n, "Sample requires k <= n");
  // For small k relative to n, rejection sampling; otherwise a partial
  // Fisher-Yates over an index vector.
  if (k * 4 <= n) {
    // The seen-set is an open-addressing table of at least 2k slots
    // (load <= 1/2, linear probing), on the stack up to kInlineSlots.
    // Every candidate is < n, so the all-ones word marks an empty slot.
    constexpr std::size_t kInlineSlots = 512;
    constexpr std::size_t kEmpty = ~std::size_t{0};
    const std::size_t slots = std::bit_ceil(std::max<std::size_t>(2 * k, 16));
    const int shift = 64 - std::countr_zero(slots);
    std::array<std::size_t, kInlineSlots> inline_table;
    std::vector<std::size_t> heap_table;
    std::size_t* table = inline_table.data();
    if (slots > kInlineSlots) {
      heap_table.resize(slots);
      table = heap_table.data();
    }
    std::fill_n(table, slots, kEmpty);
    std::vector<std::size_t> out;
    out.reserve(k);
    while (out.size() < k) {
      const std::size_t candidate = Index(n);
      std::size_t slot = static_cast<std::size_t>(
          (static_cast<std::uint64_t>(candidate) * 0x9e3779b97f4a7c15ULL) >>
          shift);
      while (table[slot] != kEmpty && table[slot] != candidate) {
        slot = (slot + 1) & (slots - 1);
      }
      if (table[slot] == candidate) {
        continue;
      }
      table[slot] = candidate;
      out.push_back(candidate);
    }
    return out;
  }
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) {
    indices[i] = i;
  }
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + Index(n - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

}  // namespace np::util
