// Experiment runner for the §4-style simulations.
//
// Mirrors the paper's methodology: from ~2500 peers, ~2400 randomly
// chosen peers form the overlay and the remaining ~100 are targets;
// 5000 closest-peer queries are launched at randomly chosen targets.
// Metrics follow Figs 8-9: probability the found peer is the exact
// closest member, probability it is at least in the target's cluster,
// and — for wrong answers — the latency from the found peer's
// end-network to its cluster-hub (the load-concentration effect the
// paper discusses for large delta).
#pragma once

#include <cstdint>
#include <vector>

#include "core/nearest_algorithm.h"
#include "matrix/generators.h"
#include "util/rng.h"

namespace np::core {

struct ExperimentConfig {
  /// Number of peers placed in the overlay; the rest become targets.
  NodeId overlay_size = 2400;
  /// Closest-peer queries to launch (targets drawn with replacement).
  int num_queries = 5000;
  /// Multiplicative jitter applied to every query-time probe (0 =
  /// noise-free, the paper's §4 simulator setting). Scoring always
  /// uses true latencies.
  double measurement_noise_frac = 0.0;
  /// Absolute (distance-independent) probe noise, ms.
  double measurement_noise_floor_ms = 0.0;
  /// Worker threads for the query loop: 0 = hardware_concurrency, 1 =
  /// serial. Every query derives its own RNG and noise stream from the
  /// runner seed and the query index, and metrics are reduced in query
  /// order, so results are bit-identical for every thread count. An
  /// algorithm whose ParallelQuerySafe() is false runs on one thread
  /// regardless.
  int num_threads = 0;
};

struct ClusteredMetrics {
  /// 64-bit like every other tally here, so downstream aggregation
  /// across sweeps/epochs never narrows mid-sum.
  std::int64_t num_queries = 0;
  /// P(found peer is the correct closest peer) — Fig 8 left axis,
  /// Fig 9 left axis.
  double p_exact_closest = 0.0;
  /// P(found peer in the same cluster as the target) — Fig 8 right.
  double p_correct_cluster = 0.0;
  /// P(found peer in the same end-network as the target).
  double p_same_net = 0.0;
  /// Median latency from the found peer to its cluster-hub, over
  /// queries that did NOT find the exact closest — Fig 9 right axis.
  double median_wrong_hub_latency_ms = 0.0;
  /// Mean latency target -> found peer.
  double mean_found_latency_ms = 0.0;
  /// Mean query-time probe count and overlay hops.
  double mean_probes = 0.0;
  double mean_hops = 0.0;
};

/// Runs `algo` over any latency space with clustered scoring metadata.
/// The algorithm is Build()-ed on a fresh random overlay; rng drives
/// overlay choice, target choice and the algorithm's own randomness.
/// The space may be any backend a SpaceFactory produces — dense matrix
/// or implicit — as long as `layout` describes its node ids.
ClusteredMetrics RunClusteredExperiment(const LatencySpace& space,
                                        const matrix::ClusterLayout& layout,
                                        NearestPeerAlgorithm& algo,
                                        const ExperimentConfig& config,
                                        util::Rng& rng);

/// Convenience for matrix-backed worlds; wraps the matrix and
/// delegates to the space-based runner above.
ClusteredMetrics RunClusteredExperiment(const matrix::ClusteredWorld& world,
                                        NearestPeerAlgorithm& algo,
                                        const ExperimentConfig& config,
                                        util::Rng& rng);

struct GenericMetrics {
  /// See ClusteredMetrics::num_queries for the 64-bit rationale.
  std::int64_t num_queries = 0;
  double p_exact_closest = 0.0;
  /// Mean of found_latency / true_closest_latency (>= 1; 1 == perfect).
  double mean_stretch = 0.0;
  /// Mean absolute error vs the true closest latency, ms.
  double mean_abs_error_ms = 0.0;
  double mean_probes = 0.0;
  double mean_hops = 0.0;
};

/// Same protocol on an arbitrary space (no cluster labels) — used for
/// the Euclidean control experiments.
GenericMetrics RunGenericExperiment(const LatencySpace& space,
                                    NearestPeerAlgorithm& algo,
                                    const ExperimentConfig& config,
                                    util::Rng& rng);

/// A random overlay plus the nodes left over as targets.
struct OverlaySplit {
  std::vector<NodeId> members;
  std::vector<NodeId> targets;
};

/// Rejects an overlay size SplitNodes cannot cut from `num_nodes` nodes
/// (at least one member, at least one target); SplitNodes calls this.
void ValidateOverlaySplit(std::size_t num_nodes, NodeId overlay_size);

/// Shuffles `nodes` and splits them into an overlay of `overlay_size`
/// members plus the remaining targets.
OverlaySplit SplitNodes(std::vector<NodeId> nodes, NodeId overlay_size,
                        util::Rng& rng);

/// SplitNodes over [0, space_size).
OverlaySplit SplitOverlay(NodeId space_size, NodeId overlay_size,
                          util::Rng& rng);

}  // namespace np::core
