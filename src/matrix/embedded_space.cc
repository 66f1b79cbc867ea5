#include "matrix/embedded_space.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/rng.h"

namespace np::matrix {

void ValidateEmbeddedConfig(const EmbeddedSpaceConfig& config) {
  NP_ENSURE(config.num_nodes >= 1, "EmbeddedSpace requires n >= 1");
  NP_ENSURE(config.dimensions >= 1, "need at least one dimension");
  NP_ENSURE(config.side_ms > 0.0, "side must be positive");
  NP_ENSURE(config.distortion >= 0.0 && config.distortion < 1.0,
            "distortion must be in [0, 1)");
}

EmbeddedSpace::EmbeddedSpace(const EmbeddedSpaceConfig& config)
    : config_(config) {
  ValidateEmbeddedConfig(config_);
  util::Rng rng(util::Mix64(config_.seed));
  coords_.resize(static_cast<std::size_t>(config_.num_nodes) *
                 static_cast<std::size_t>(config_.dimensions));
  for (double& c : coords_) {
    c = rng.Uniform(0.0, config_.side_ms);
  }
}

inline double EmbeddedSpace::SquaredDistance(NodeId a, NodeId b) const {
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  const double* pa = coords_.data() + static_cast<std::size_t>(a) * dims;
  const double* pb = coords_.data() + static_cast<std::size_t>(b) * dims;
  if (dims == 3) {
    // The default shape, unrolled. Same sums in the same order as the
    // loop below: 0.0 + x == x exactly for x >= 0.
    const double d0 = pa[0] - pb[0];
    const double d1 = pa[1] - pb[1];
    const double d2 = pa[2] - pb[2];
    return d0 * d0 + d1 * d1 + d2 * d2;
  }
  double sq = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double diff = pa[d] - pb[d];
    sq += diff * diff;
  }
  return sq;
}

inline LatencyMs EmbeddedSpace::Distort(NodeId a, NodeId b,
                                        double base) const {
  double latency = base;
  if (config_.distortion > 0.0) {
    // One uniform draw keyed on the unordered pair: probe-order- and
    // direction-independent by construction.
    const double u = util::MixToUnit(
        util::Mix64(config_.seed ^ util::PairKey(a, b)));
    latency *= 1.0 + config_.distortion * (2.0 * u - 1.0);
  }
  // Two random points can coincide; keep a strictly positive floor so
  // "closest" stays well-defined (same floor as GenerateEuclidean).
  return std::max(latency, 1e-6);
}

LatencyMs EmbeddedSpace::Latency(NodeId a, NodeId b) const {
  NP_DCHECK(a >= 0 && a < config_.num_nodes, "node id out of range");
  NP_DCHECK(b >= 0 && b < config_.num_nodes, "node id out of range");
  if (a == b) {
    return 0.0;
  }
  return Distort(a, b, std::sqrt(SquaredDistance(a, b)));
}

NodeId EmbeddedSpace::ClosestOf(NodeId target, std::span<const NodeId> members,
                                LatencyMs* latency) const {
  NP_DCHECK(target >= 0 && target < config_.num_nodes, "node id out of range");
  // Distort scales base by 1 + d * (2u - 1) with u in [0, 1). Rounding
  // is monotone, so the computed factor is at least fl(1 - d), the
  // computed product at least fl(base * fl(1 - d)), and the floored
  // latency at least max(that, 1e-6). A candidate whose bound exceeds
  // the best latency strictly cannot win, not even a tie on id.
  const double shrink = 1.0 - config_.distortion;
  NodeId best = kInvalidNode;
  LatencyMs best_latency = kInfiniteLatency;
  // Squared distances above `sq_cut` fail that bound test before the
  // square root: the cut sits a relative 1e-9 above (best / shrink)^2,
  // far more than the few roundings between the two tests can undo.
  double sq_cut = kInfiniteLatency;
  for (const NodeId m : members) {
    NP_DCHECK(m >= 0 && m < config_.num_nodes, "node id out of range");
    if (m == target) {
      continue;
    }
    const double sq = SquaredDistance(m, target);
    if (sq > sq_cut) {
      continue;
    }
    const double base = std::sqrt(sq);
    if (std::max(base * shrink, 1e-6) > best_latency) {
      continue;
    }
    const LatencyMs l = Distort(m, target, base);
    if (l < best_latency || (l == best_latency && m < best)) {
      best = m;
      best_latency = l;
      const double reach = best_latency / shrink;
      sq_cut = reach * reach * (1.0 + 1e-9);
    }
  }
  *latency = best_latency;
  return best;
}

LatencyMatrix EmbeddedSpace::Materialize() const {
  LatencyMatrix m(config_.num_nodes);
  for (NodeId a = 0; a < config_.num_nodes; ++a) {
    for (NodeId b = a + 1; b < config_.num_nodes; ++b) {
      m.Set(a, b, Latency(a, b));
    }
  }
  return m;
}

}  // namespace np::matrix
