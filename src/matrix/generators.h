// Synthetic latency-matrix generators.
//
// Three spaces are needed by the reproduction:
//  * KingLike  — a stand-in for the Meridian DNS-server latency dataset
//                used by the paper for inter-cluster-hub latencies
//                (median ~65 ms); lognormal mixture + metric repair.
//  * Clustered — the paper's §4 construction: clusters of end-networks
//                around hubs, U(4,6) ms mean hub latency, +-delta
//                spread, 2 peers per end-network at 100 us.
//  * Euclidean — a control space satisfying growth-constraint /
//                doubling / low-dimensionality, where every
//                nearest-peer algorithm is expected to work well.
#pragma once

#include <vector>

#include "matrix/latency_matrix.h"
#include "util/rng.h"
#include "util/types.h"

namespace np::matrix {

// ---------------------------------------------------------------------------
// King-like base matrix.

/// Median of pairwise latencies, ms. The Meridian DNS dataset the
/// paper samples hub latencies from has a median around 65 ms.
inline constexpr double kKingMedianMs = 65.0;
/// Sigma of the underlying normal (controls spread).
inline constexpr double kKingSigma = 0.55;
/// Clamp range for raw samples before metric repair.
inline constexpr double kKingMinMs = 5.0;
inline constexpr double kKingMaxMs = 400.0;

/// Generates an n x n King-like latency matrix. `metric_repair`
/// Floyd-Warshalls the result into a metric: the live Internet
/// violates the triangle inequality mildly; repair keeps the control
/// experiments clean, and the violation itself is not what the paper
/// studies.
LatencyMatrix GenerateKingLike(NodeId n, util::Rng& rng,
                               bool metric_repair = true);

// ---------------------------------------------------------------------------
// Clustered space (paper §4).

struct ClusteredConfig {
  /// Number of clusters (PoPs). The paper derives this from the total
  /// peer population (~2500) divided by nets-per-cluster * 2.
  int num_clusters = 10;
  /// End-networks per cluster.
  int nets_per_cluster = 125;
  /// Peers per end-network ("All end-networks in our simulation
  /// contain two peers each").
  int peers_per_net = 2;
  /// Spread of end-network latencies around the cluster mean: each
  /// end-network's hub latency is U((1-delta)*mean, (1+delta)*mean).
  double delta = 0.2;
};

/// Latency between two peers in the same end-network (100 us).
inline constexpr LatencyMs kSameNetLatencyMs = 0.1;

/// Mean hub-to-end-network latency, drawn U(lo, hi) per cluster.
inline constexpr double kHubNetMeanLoMs = 4.0;
inline constexpr double kHubNetMeanHiMs = 6.0;

/// Rejects a config GenerateClustered cannot build. Both generators
/// run it before drawing anything; np_run runs it on every clustered
/// spec.
void ValidateClusteredConfig(const ClusteredConfig& config);

/// Static description of which peer lives where; the experiment runner
/// uses it to score "correct cluster" and "latency to cluster-hub".
class ClusterLayout {
 public:
  struct PeerInfo {
    int cluster = -1;
    int net = -1;
  };

  ClusterLayout(std::vector<PeerInfo> peers, std::vector<int> net_cluster,
                std::vector<LatencyMs> net_hub_latency, int num_clusters);

  NodeId peer_count() const { return static_cast<NodeId>(peers_.size()); }
  int net_count() const { return static_cast<int>(net_cluster_.size()); }
  int cluster_count() const { return num_clusters_; }

  int ClusterOf(NodeId peer) const { return peers_.at(ToIndex(peer)).cluster; }
  int NetOf(NodeId peer) const { return peers_.at(ToIndex(peer)).net; }
  int ClusterOfNet(int net) const { return net_cluster_.at(net); }

  bool SameNet(NodeId a, NodeId b) const { return NetOf(a) == NetOf(b); }
  bool SameCluster(NodeId a, NodeId b) const {
    return ClusterOf(a) == ClusterOf(b);
  }

  /// Latency from the peer's end-network to its cluster-hub.
  LatencyMs HubLatencyOfPeer(NodeId peer) const {
    return net_hub_latency_.at(static_cast<std::size_t>(NetOf(peer)));
  }
  LatencyMs HubLatencyOfNet(int net) const {
    return net_hub_latency_.at(static_cast<std::size_t>(net));
  }

  /// Peers sharing the peer's end-network (excluding the peer).
  std::vector<NodeId> NetMates(NodeId peer) const;

 private:
  static std::size_t ToIndex(NodeId peer) {
    NP_ENSURE(peer >= 0, "negative peer id");
    return static_cast<std::size_t>(peer);
  }

  std::vector<PeerInfo> peers_;
  std::vector<int> net_cluster_;
  std::vector<LatencyMs> net_hub_latency_;
  int num_clusters_;
  std::vector<std::vector<NodeId>> net_peers_;
};

struct ClusteredWorld {
  LatencyMatrix matrix;
  ClusterLayout layout;
};

/// Builds the §4 world. `hub_base` supplies inter-hub latencies and
/// must have size >= config.num_clusters; hubs are mapped to randomly
/// chosen distinct rows of it (the paper samples random DNS servers
/// from the Meridian dataset).
ClusteredWorld GenerateClustered(const ClusteredConfig& config,
                                 const LatencyMatrix& hub_base,
                                 util::Rng& rng);

/// Convenience: generates the hub base internally with KingLike.
ClusteredWorld GenerateClustered(const ClusteredConfig& config,
                                 util::Rng& rng);

// ---------------------------------------------------------------------------
// Euclidean control space.

struct EuclideanConfig {
  int dimensions = 3;
  /// Coordinates uniform in [0, side_ms] per axis; latency = L2 norm.
  double side_ms = 100.0;
};

struct EuclideanWorld {
  LatencyMatrix matrix;
  /// Row-major n x dimensions coordinates used to build the matrix.
  std::vector<double> coordinates;
  int dimensions = 0;
};

/// Rejects an n or a config GenerateEuclidean cannot build; np_run
/// runs it on every euclidean spec.
void ValidateEuclideanConfig(NodeId n, const EuclideanConfig& config);

EuclideanWorld GenerateEuclidean(NodeId n, const EuclideanConfig& config,
                                 util::Rng& rng);

}  // namespace np::matrix
