// §5 heuristic evaluations over the traceroute path graph:
//
//  * Fig 10 — inter-peer router hop-length as a function of inter-peer
//    latency for close pairs (< 10 ms): "the number of routers to be
//    tracked in order to discover peers at a given latency range is
//    equal to half the corresponding hop-length value".
//
//  * Fig 11 — false-positive / false-negative rates of the IP-prefix
//    heuristic as a function of matching prefix length, with
//    "close" = within 10 ms along the graph's shortest paths.
#pragma once

#include <vector>

#include "measure/path_graph.h"
#include "util/stats.h"

namespace np::measure {

/// A pair is "close" below this shortest-path latency (paper: 10 ms).
inline constexpr double kCloseMs = 10.0;

/// Precomputed close-peer sets, one entry per graph peer.
struct CloseSets {
  std::vector<NodeId> peers;
  std::vector<std::vector<PathGraph::Reach>> close;

  /// Peers with at least one close peer (Fig 11's "population").
  int PopulationSize() const;
};

CloseSets ComputeCloseSets(const PathGraph& graph);

/// Fig 10: binned scatter of router hop-length (y) vs latency (x) over
/// all close pairs.
util::BinnedScatter HopLengthVsLatency(const CloseSets& sets,
                                       double max_latency_ms = 10.0,
                                       std::size_t bins = 10);

struct PrefixRates {
  int prefix_bits = 0;
  double median_false_positive = 0.0;
  double median_false_negative = 0.0;
  /// Mean count of same-prefix peers per population peer (probing cost).
  double mean_candidates = 0.0;
};

/// Fig 11: per-peer FP/FN rates of "same /bits prefix implies close",
/// medians across the population, for each prefix length in
/// [min_bits, max_bits].
std::vector<PrefixRates> EvaluatePrefixHeuristic(
    const net::Topology& topology, const CloseSets& sets, int min_bits,
    int max_bits);

}  // namespace np::measure
