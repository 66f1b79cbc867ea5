// Descriptive statistics used by the measurement pipelines and the
// figure benches: percentile summaries, empirical CDFs and the
// paper's "binned scatter plots" (Figs 4 and 10 group sample points
// by x into bins and report per-bin percentiles).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/error.h"

namespace np::util {

/// Interpolated percentile of an unsorted sample. q in [0, 100].
/// Throws on an empty sample.
double Percentile(std::vector<double> values, double q);

/// Percentile of an already ascending-sorted sample (no copy).
double PercentileSorted(const std::vector<double>& sorted, double q);

/// Five-number-plus summary of a sample.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double p5 = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;

  /// Computes all fields; throws on an empty sample.
  static Summary Of(std::vector<double> values);
};

/// Empirical CDF over a sample; supports both directions of query so the
/// benches can print either "fraction below x" (Fig 5) or "x at
/// cumulative count" (Figs 3, 6).
class Cdf {
 public:
  explicit Cdf(std::vector<double> values);

  std::size_t count() const { return sorted_.size(); }

  /// Fraction of samples <= x, in [0, 1].
  double FractionAtOrBelow(double x) const;

  /// Number of samples <= x.
  std::size_t CountAtOrBelow(double x) const;

  /// The sorted sample (ascending); useful for custom rendering.
  const std::vector<double>& sorted() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

/// One bin of a binned scatter plot.
struct ScatterBin {
  double x_representative = 0.0;  // geometric or arithmetic bin center
  std::size_t count = 0;
  double p5 = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
};

/// Binned scatter: groups (x, y) samples into bins over x and reports
/// per-bin percentiles of y — the presentation used by the paper's
/// Figs 4 and 10.
class BinnedScatter {
 public:
  /// Log-spaced bins between x_min and x_max (both > 0).
  static BinnedScatter LogBins(double x_min, double x_max,
                               std::size_t num_bins);

  /// Linear bins between x_min and x_max.
  static BinnedScatter LinearBins(double x_min, double x_max,
                                  std::size_t num_bins);

  /// Adds one sample; samples outside [x_min, x_max] are clamped into
  /// the first/last bin (the paper keeps edge samples visible).
  void Add(double x, double y);

  /// Per-bin summaries. Empty bins are skipped.
  std::vector<ScatterBin> Bins() const;

  std::size_t sample_count() const { return sample_count_; }

 private:
  BinnedScatter(std::vector<double> edges, bool log_spaced);

  std::size_t BinIndex(double x) const;

  std::vector<double> edges_;  // ascending, size = num_bins + 1
  bool log_spaced_ = false;
  std::vector<std::vector<double>> bin_values_;
  std::size_t sample_count_ = 0;
};

/// Gini coefficient of a non-negative sample, in [0, 1]. 0 = perfectly
/// even, (n-1)/n = one member carries everything. Used to quantify the
/// paper's load-concentration effect (Figs 8-9): how unevenly the
/// probe-answering burden falls across peers. Returns 0 for an empty or
/// all-zero sample (no load is trivially even). Throws on negative
/// values.
double Gini(std::vector<double> values);

/// Two-sample Kolmogorov-Smirnov statistic: the maximum vertical
/// distance between the two empirical CDFs, in [0, 1]. 0 = identical
/// distributions. Used to quantify "the predicted latency distribution
/// matches the measured latency distribution reasonably well" (Fig 5).
double KolmogorovSmirnov(std::vector<double> a, std::vector<double> b);

/// Median / min / max across repeated simulation runs — the paper plots
/// "median, minimum and maximum values across the three simulation
/// runs" in Figs 8-9.
struct RunSpread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;

  static RunSpread Of(const std::vector<double>& runs);
};

}  // namespace np::util
