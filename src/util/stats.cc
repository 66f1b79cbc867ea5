#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace np::util {

double PercentileSorted(const std::vector<double>& sorted, double q) {
  NP_ENSURE(!sorted.empty(), "percentile of an empty sample");
  NP_ENSURE(q >= 0.0 && q <= 100.0, "percentile q must be in [0, 100]");
  if (sorted.size() == 1) {
    return sorted.front();
  }
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  if (lo == hi) {
    return sorted[lo];
  }
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, q);
}

Summary Summary::Of(std::vector<double> values) {
  NP_ENSURE(!values.empty(), "Summary of an empty sample");
  std::sort(values.begin(), values.end());
  Summary s;
  s.count = values.size();
  s.min = values.front();
  s.max = values.back();
  s.p5 = PercentileSorted(values, 5);
  s.p25 = PercentileSorted(values, 25);
  s.median = PercentileSorted(values, 50);
  s.p75 = PercentileSorted(values, 75);
  s.p95 = PercentileSorted(values, 95);
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  s.mean = sum / static_cast<double>(values.size());
  double sq = 0.0;
  for (double v : values) {
    sq += (v - s.mean) * (v - s.mean);
  }
  s.stddev = values.size() > 1
                 ? std::sqrt(sq / static_cast<double>(values.size() - 1))
                 : 0.0;
  return s;
}

double Gini(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  NP_ENSURE(values.front() >= 0.0, "Gini of a negative sample");
  const auto n = static_cast<double>(values.size());
  double sum = 0.0;
  double weighted = 0.0;  // sum of (rank+1) * x_(rank), ascending ranks
  for (std::size_t i = 0; i < values.size(); ++i) {
    sum += values[i];
    weighted += static_cast<double>(i + 1) * values[i];
  }
  if (sum <= 0.0) {
    return 0.0;
  }
  // G = (2 * sum_i i*x_(i)) / (n * sum) - (n + 1) / n, ranks 1-based.
  return 2.0 * weighted / (n * sum) - (n + 1.0) / n;
}

Cdf::Cdf(std::vector<double> values) : sorted_(std::move(values)) {
  NP_ENSURE(!sorted_.empty(), "Cdf of an empty sample");
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::FractionAtOrBelow(double x) const {
  return static_cast<double>(CountAtOrBelow(x)) /
         static_cast<double>(sorted_.size());
}

std::size_t Cdf::CountAtOrBelow(double x) const {
  return static_cast<std::size_t>(
      std::upper_bound(sorted_.begin(), sorted_.end(), x) - sorted_.begin());
}

BinnedScatter::BinnedScatter(std::vector<double> edges, bool log_spaced)
    : edges_(std::move(edges)), log_spaced_(log_spaced) {
  bin_values_.resize(edges_.size() - 1);
}

BinnedScatter BinnedScatter::LogBins(double x_min, double x_max,
                                     std::size_t num_bins) {
  NP_ENSURE(x_min > 0.0 && x_max > x_min, "LogBins requires 0 < x_min < x_max");
  NP_ENSURE(num_bins >= 1, "LogBins requires at least one bin");
  std::vector<double> edges(num_bins + 1);
  const double log_lo = std::log(x_min);
  const double log_hi = std::log(x_max);
  for (std::size_t i = 0; i <= num_bins; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(num_bins);
    edges[i] = std::exp(log_lo + t * (log_hi - log_lo));
  }
  return BinnedScatter(std::move(edges), /*log_spaced=*/true);
}

BinnedScatter BinnedScatter::LinearBins(double x_min, double x_max,
                                        std::size_t num_bins) {
  NP_ENSURE(x_max > x_min, "LinearBins requires x_min < x_max");
  NP_ENSURE(num_bins >= 1, "LinearBins requires at least one bin");
  std::vector<double> edges(num_bins + 1);
  for (std::size_t i = 0; i <= num_bins; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(num_bins);
    edges[i] = x_min + t * (x_max - x_min);
  }
  return BinnedScatter(std::move(edges), /*log_spaced=*/false);
}

std::size_t BinnedScatter::BinIndex(double x) const {
  if (x <= edges_.front()) {
    return 0;
  }
  if (x >= edges_.back()) {
    return bin_values_.size() - 1;
  }
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
  const auto idx = static_cast<std::size_t>(it - edges_.begin());
  return idx - 1;
}

void BinnedScatter::Add(double x, double y) {
  bin_values_[BinIndex(x)].push_back(y);
  ++sample_count_;
}

std::vector<ScatterBin> BinnedScatter::Bins() const {
  std::vector<ScatterBin> out;
  for (std::size_t i = 0; i < bin_values_.size(); ++i) {
    if (bin_values_[i].empty()) {
      continue;
    }
    std::vector<double> values = bin_values_[i];
    std::sort(values.begin(), values.end());
    ScatterBin bin;
    bin.x_representative = log_spaced_
                               ? std::sqrt(edges_[i] * edges_[i + 1])
                               : 0.5 * (edges_[i] + edges_[i + 1]);
    bin.count = values.size();
    bin.p5 = PercentileSorted(values, 5);
    bin.p25 = PercentileSorted(values, 25);
    bin.median = PercentileSorted(values, 50);
    bin.p75 = PercentileSorted(values, 75);
    bin.p95 = PercentileSorted(values, 95);
    out.push_back(bin);
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  NP_ENSURE(hi > lo, "Histogram requires lo < hi");
  NP_ENSURE(buckets >= 1, "Histogram requires at least one bucket");
}

void Histogram::Add(double value) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::ptrdiff_t>((value - lo_) / width);
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bucket_lo(std::size_t bucket) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bucket);
}

double Histogram::bucket_hi(std::size_t bucket) const {
  return bucket_lo(bucket + 1);
}

double KolmogorovSmirnov(std::vector<double> a, std::vector<double> b) {
  NP_ENSURE(!a.empty() && !b.empty(), "KS distance of an empty sample");
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double max_distance = 0.0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() && ib < b.size()) {
    // Evaluate both CDFs just after the next distinct jump point;
    // advancing past ties on both sides keeps equal samples at
    // distance zero.
    const double x = std::min(a[ia], b[ib]);
    while (ia < a.size() && a[ia] <= x) {
      ++ia;
    }
    while (ib < b.size() && b[ib] <= x) {
      ++ib;
    }
    const double fa = static_cast<double>(ia) / static_cast<double>(a.size());
    const double fb = static_cast<double>(ib) / static_cast<double>(b.size());
    max_distance = std::max(max_distance, std::abs(fa - fb));
  }
  return max_distance;
}

RunSpread RunSpread::Of(const std::vector<double>& runs) {
  NP_ENSURE(!runs.empty(), "RunSpread of zero runs");
  std::vector<double> sorted = runs;
  std::sort(sorted.begin(), sorted.end());
  RunSpread spread;
  spread.min = sorted.front();
  spread.max = sorted.back();
  spread.median = PercentileSorted(sorted, 50);
  return spread;
}

}  // namespace np::util
