// The §3.2 Azureus clustering study: find each responsive peer's unique
// upstream router via traceroutes from all vantage points, measure
// hub-to-peer latencies by subtracting the hub's traceroute RTT from
// the peer's TCP-ping RTT, group peers into clusters per hub, and prune
// each cluster to members whose hub latencies lie within a factor of
// one another — Figs 6 and 7.
#pragma once

#include <vector>

#include "net/tools.h"
#include "util/rng.h"

namespace np::measure {

/// Hub-to-peer latencies within a pruned cluster must all be within
/// this factor of one another (paper: 1.5).
inline constexpr double kPruneFactor = 1.5;

struct AzureusCluster {
  RouterId hub = kInvalidRouter;
  /// Responsive peers with this unique upstream router.
  std::vector<NodeId> peers;
  /// Hub-to-peer latency per peer (same order), ms.
  std::vector<LatencyMs> hub_latencies;
  /// Largest subset whose latencies are within kPruneFactor.
  std::vector<NodeId> pruned_peers;
  std::vector<LatencyMs> pruned_latencies;
};

struct AzureusStudyResult {
  int total_ips = 0;
  /// Responded to TCP ping or traceroute.
  int responsive = 0;
  /// ... and had the same last valid router from every vantage point.
  int unique_upstream = 0;
  std::vector<AzureusCluster> clusters;

  /// Cluster sizes descending (Fig 6 input).
  std::vector<int> UnprunedSizes() const;
  std::vector<int> PrunedSizes() const;
  /// Fraction of (clustered) peers that sit in pruned clusters of at
  /// least `k` members (paper: ~16% at k = 25).
  double FractionInPrunedClustersAtLeast(int k) const;
  /// The n largest pruned clusters (by pruned size), descending.
  std::vector<const AzureusCluster*> LargestPruned(int n) const;
};

/// Largest contiguous window (over sorted latencies) with
/// max <= factor * min; returns indices into the sorted order.
/// Exposed for testing.
std::pair<std::size_t, std::size_t> LargestBoundedWindow(
    const std::vector<double>& sorted, double factor);

AzureusStudyResult RunAzureusStudy(const net::Topology& topology,
                                   net::Tools& tools);

}  // namespace np::measure
