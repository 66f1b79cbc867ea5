// Quantifies the paper's §2.2 claims on a concrete latency space:
//
//  * Growth constraint — "the number of peers within latency 2l from P
//    is not significantly larger than the number within latency l".
//    We report the worst |B(P, 2l)| / |B(P, l)| ratio over a grid of
//    scales. Under the clustering condition this blows up at the scale
//    of the LAN-to-cluster gap; in a Euclidean space it stays ~2^d.
//
//  * Doubling — "any set of peers covered by a ball of radius r can be
//    covered by a small number of balls of radius r/2". We greedily
//    cover sampled balls with half-radius balls and report the count,
//    which approaches the number of end-networks per cluster when the
//    clustering condition holds.
#pragma once

#include <vector>

#include "core/latency_space.h"
#include "util/rng.h"

namespace np::core {

struct GrowthReport {
  /// Per-sampled-node worst-case growth ratio, reduced two ways.
  double median_ratio = 0.0;
  double max_ratio = 0.0;
  int nodes_sampled = 0;
};

/// Nodes whose balls are measured (fewer when the space is smaller).
inline constexpr int kGrowthSampleNodes = 50;
/// Number of geometric scales between each node's smallest and
/// largest positive latency.
inline constexpr int kGrowthNumScales = 24;

GrowthReport AnalyzeGrowth(const LatencySpace& space, util::Rng& rng);

struct DoublingReport {
  double mean_half_cover = 0.0;
  int max_half_cover = 0;
  int balls_sampled = 0;
};

/// Balls sampled per report.
inline constexpr int kDoublingSampleBalls = 50;
/// Skip balls containing fewer points than this (degenerate).
inline constexpr int kDoublingMinBallSize = 4;

/// The radius of each sampled ball is the `radius_quantile` quantile
/// of the center's latency distribution, in (0, 1] (0.5 probes the
/// cluster scale in the §4 worlds).
DoublingReport AnalyzeDoubling(const LatencySpace& space,
                               double radius_quantile, util::Rng& rng);

}  // namespace np::core
