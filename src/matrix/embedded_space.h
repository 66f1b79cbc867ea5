// On-demand (non-materialized) latency backend: d-dimensional
// coordinates plus deterministic per-pair distortion.
//
// A dense LatencyMatrix costs O(n^2) memory (~80 GB at n = 10^5),
// which caps every experiment at a few thousand nodes. EmbeddedSpace
// stores only O(n * d) coordinates and recomputes Latency(a, b) on
// every probe: the L2 distance between the endpoints times a
// multiplicative distortion factor derived from
// Mix64(seed ^ PairKey(a, b)) — a pure function of the pair, so
// latencies are reproducible without any per-pair storage, symmetric
// by construction, and identical no matter how many times or in what
// order they are probed.
//
// The distortion knob makes triangle violations tunable: 0 keeps the
// space a true (Euclidean) metric; distortion delta scales each pair
// by U(1 - delta, 1 + delta), so violation ratios reach roughly
// (1 + delta) / (1 - delta) - 1 — the mild non-metricity of the live
// Internet without a Floyd-Warshall pass (which would need the dense
// matrix this backend exists to avoid).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/latency_space.h"
#include "matrix/latency_matrix.h"
#include "util/types.h"

namespace np::matrix {

struct EmbeddedSpaceConfig {
  NodeId num_nodes = 1000;
  /// Embedding dimension; low-dimensional spaces satisfy the growth
  /// constraint every nearest-peer scheme assumes.
  int dimensions = 3;
  /// Coordinates uniform in [0, side_ms] per axis; base latency is the
  /// L2 norm in ms.
  double side_ms = 100.0;
  /// Per-pair multiplicative distortion in [0, 1): each pair's base
  /// distance is scaled by U(1 - distortion, 1 + distortion) drawn
  /// from Mix64(seed ^ PairKey(a, b)). 0 = exact metric.
  double distortion = 0.0;
  /// Seeds both the coordinate draw and the per-pair distortion.
  std::uint64_t seed = 1;
};

/// Rejects a config EmbeddedSpace cannot build. The constructor runs
/// it; np_run runs it on every embedded spec.
void ValidateEmbeddedConfig(const EmbeddedSpaceConfig& config);

class EmbeddedSpace final : public core::LatencySpace {
 public:
  explicit EmbeddedSpace(const EmbeddedSpaceConfig& config);

  NodeId size() const override { return config_.num_nodes; }

  /// Pure function of (config, a, b): no internal state is read or
  /// written, so concurrent probes from the query loop are safe.
  LatencyMs Latency(NodeId a, NodeId b) const override;

  /// Bit-identical to the per-pair scan, at a fraction of its cost: a
  /// candidate whose lower bound max(base * (1 - distortion), 1e-6)
  /// already exceeds the best latency so far is skipped without its
  /// distortion hash. Rounding is monotone, so that bound never exceeds
  /// the latency Latency() computes, and ties still reach the exact
  /// comparison.
  NodeId ClosestOf(NodeId target, std::span<const NodeId> members,
                   LatencyMs* latency) const override;

  const EmbeddedSpaceConfig& config() const { return config_; }

  /// Row-major num_nodes x dimensions coordinates.
  const std::vector<double>& coordinates() const { return coords_; }

  /// Dense matrix holding exactly this space's latencies — the
  /// equivalence bridge to the matrix-backed pipeline. O(n^2) memory:
  /// small n only (tests, cross-checks).
  LatencyMatrix Materialize() const;

 private:
  /// Squared L2 distance between the coordinates of a and b: the one
  /// summation both Latency and ClosestOf run, so their answers agree
  /// bit for bit.
  double SquaredDistance(NodeId a, NodeId b) const;
  /// The latency of a != b from its base distance: distortion, floor.
  LatencyMs Distort(NodeId a, NodeId b, double base) const;

  EmbeddedSpaceConfig config_;
  std::vector<double> coords_;
};

}  // namespace np::matrix
