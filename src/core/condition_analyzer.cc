#include "core/condition_analyzer.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/stats.h"

namespace np::core {

static_assert(kGrowthSampleNodes >= 1, "need at least one sample node");
static_assert(kGrowthNumScales >= 2, "need at least two scales");

GrowthReport AnalyzeGrowth(const LatencySpace& space, util::Rng& rng) {
  const NodeId n = space.size();
  NP_ENSURE(n >= 3, "space too small to analyze");

  const int samples = std::min<int>(kGrowthSampleNodes, n);
  const std::vector<std::size_t> chosen =
      rng.Sample(static_cast<std::size_t>(n),
                 static_cast<std::size_t>(samples));

  std::vector<double> per_node_worst;
  per_node_worst.reserve(chosen.size());

  for (std::size_t node_index : chosen) {
    const NodeId p = static_cast<NodeId>(node_index);
    std::vector<double> latencies;
    latencies.reserve(static_cast<std::size_t>(n) - 1);
    for (NodeId other = 0; other < n; ++other) {
      if (other == p) {
        continue;
      }
      const LatencyMs l = space.Latency(p, other);
      if (l > 0.0) {
        latencies.push_back(l);
      }
    }
    if (latencies.size() < 2) {
      continue;
    }
    std::sort(latencies.begin(), latencies.end());
    const double lo = latencies.front();
    const double hi = latencies.back();
    if (hi <= lo) {
      continue;
    }
    double worst = 1.0;
    for (int s = 0; s < kGrowthNumScales; ++s) {
      const double t =
          static_cast<double>(s) / static_cast<double>(kGrowthNumScales - 1);
      const double scale = lo * std::pow(hi / (2.0 * lo), t);
      const auto count_le = [&](double x) {
        return static_cast<double>(
            std::upper_bound(latencies.begin(), latencies.end(), x) -
            latencies.begin());
      };
      const double inner = count_le(scale);
      if (inner < 1.0) {
        continue;
      }
      worst = std::max(worst, count_le(2.0 * scale) / inner);
    }
    per_node_worst.push_back(worst);
  }

  GrowthReport report;
  report.nodes_sampled = static_cast<int>(per_node_worst.size());
  if (!per_node_worst.empty()) {
    report.max_ratio =
        *std::max_element(per_node_worst.begin(), per_node_worst.end());
    report.median_ratio = util::Percentile(per_node_worst, 50.0);
  }
  return report;
}

namespace {

/// Greedy half-radius cover of the ball B(center, radius): repeatedly
/// pick an uncovered point and cover everything within radius/2 of it.
int HalfCoverCount(const LatencySpace& space, NodeId center, double radius) {
  std::vector<NodeId> ball;
  for (NodeId other = 0; other < space.size(); ++other) {
    if (space.Latency(center, other) <= radius) {
      ball.push_back(other);
    }
  }
  std::vector<bool> covered(ball.size(), false);
  int balls_used = 0;
  for (std::size_t i = 0; i < ball.size(); ++i) {
    if (covered[i]) {
      continue;
    }
    ++balls_used;
    for (std::size_t j = i; j < ball.size(); ++j) {
      if (!covered[j] &&
          space.Latency(ball[i], ball[j]) <= radius / 2.0) {
        covered[j] = true;
      }
    }
  }
  return balls_used;
}

}  // namespace

DoublingReport AnalyzeDoubling(const LatencySpace& space,
                               double radius_quantile, util::Rng& rng) {
  NP_ENSURE(radius_quantile > 0.0 && radius_quantile <= 1.0,
            "radius quantile must be in (0, 1]");
  const NodeId n = space.size();
  NP_ENSURE(n >= 3, "space too small to analyze");

  DoublingReport report;
  double total = 0.0;
  for (int trial = 0; trial < kDoublingSampleBalls; ++trial) {
    const NodeId center = static_cast<NodeId>(rng.Index(
        static_cast<std::size_t>(n)));
    std::vector<double> latencies;
    latencies.reserve(static_cast<std::size_t>(n) - 1);
    for (NodeId other = 0; other < n; ++other) {
      if (other != center) {
        latencies.push_back(space.Latency(center, other));
      }
    }
    const double radius =
        util::Percentile(latencies, radius_quantile * 100.0);
    if (radius <= 0.0) {
      continue;
    }
    // Size check before the expensive cover.
    int ball_size = 0;
    for (NodeId other = 0; other < n; ++other) {
      if (space.Latency(center, other) <= radius) {
        ++ball_size;
      }
    }
    if (ball_size < kDoublingMinBallSize) {
      continue;
    }
    const int cover = HalfCoverCount(space, center, radius);
    total += cover;
    report.max_half_cover = std::max(report.max_half_cover, cover);
    ++report.balls_sampled;
  }
  if (report.balls_sampled > 0) {
    report.mean_half_cover = total / report.balls_sampled;
  }
  return report;
}

}  // namespace np::core
