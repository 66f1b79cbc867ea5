#include "matrix/generators.h"

#include <algorithm>
#include <cmath>

namespace np::matrix {

static_assert(kKingMedianMs > 0.0, "median must be positive");
static_assert(kKingMinMs > 0.0 && kKingMaxMs > kKingMinMs,
              "invalid clamp range");
static_assert(kHubNetMeanLoMs > 0.0 && kHubNetMeanHiMs >= kHubNetMeanLoMs,
              "invalid hub-net mean range");

LatencyMatrix GenerateKingLike(NodeId n, util::Rng& rng, bool metric_repair) {
  NP_ENSURE(n >= 1, "KingLike requires n >= 1");
  // Give each node a latent "position cost" so the matrix has node
  // structure (well-connected vs poorly-connected hubs) rather than
  // i.i.d. entries; pairwise latency is the product of node factors and
  // a lognormal pair term, calibrated so the overall median lands near
  // kKingMedianMs.
  std::vector<double> node_factor(static_cast<std::size_t>(n));
  for (auto& f : node_factor) {
    f = std::exp(rng.Gaussian(0.0, 0.25));
  }
  const double mu = std::log(kKingMedianMs);
  LatencyMatrix m(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      const double pair_term = rng.LogNormal(mu, kKingSigma);
      double latency = pair_term * node_factor[static_cast<std::size_t>(i)] *
                       node_factor[static_cast<std::size_t>(j)];
      latency = std::clamp(latency, kKingMinMs, kKingMaxMs);
      m.Set(i, j, latency);
    }
  }
  if (metric_repair && n >= 3) {
    m.MetricRepair();
  }
  return m;
}

ClusterLayout::ClusterLayout(std::vector<PeerInfo> peers,
                             std::vector<int> net_cluster,
                             std::vector<LatencyMs> net_hub_latency,
                             int num_clusters)
    : peers_(std::move(peers)),
      net_cluster_(std::move(net_cluster)),
      net_hub_latency_(std::move(net_hub_latency)),
      num_clusters_(num_clusters) {
  NP_ENSURE(net_cluster_.size() == net_hub_latency_.size(),
            "net metadata size mismatch");
  net_peers_.resize(net_cluster_.size());
  for (std::size_t p = 0; p < peers_.size(); ++p) {
    const PeerInfo& info = peers_[p];
    NP_ENSURE(info.net >= 0 &&
                  info.net < static_cast<int>(net_cluster_.size()),
              "peer references unknown net");
    NP_ENSURE(info.cluster == net_cluster_[static_cast<std::size_t>(info.net)],
              "peer/net cluster mismatch");
    net_peers_[static_cast<std::size_t>(info.net)].push_back(
        static_cast<NodeId>(p));
  }
}

std::vector<NodeId> ClusterLayout::NetMates(NodeId peer) const {
  const auto& all = net_peers_.at(static_cast<std::size_t>(NetOf(peer)));
  std::vector<NodeId> mates;
  mates.reserve(all.size() - 1);
  for (NodeId p : all) {
    if (p != peer) {
      mates.push_back(p);
    }
  }
  return mates;
}

void ValidateClusteredConfig(const ClusteredConfig& config) {
  NP_ENSURE(config.num_clusters >= 1, "need at least one cluster");
  NP_ENSURE(config.nets_per_cluster >= 1, "need at least one net/cluster");
  NP_ENSURE(config.peers_per_net >= 1, "need at least one peer/net");
  NP_ENSURE(config.delta >= 0.0 && config.delta <= 1.0,
            "delta must be in [0, 1]");
}

ClusteredWorld GenerateClustered(const ClusteredConfig& config,
                                 const LatencyMatrix& hub_base,
                                 util::Rng& rng) {
  ValidateClusteredConfig(config);
  NP_ENSURE(hub_base.size() >= config.num_clusters,
            "hub base matrix smaller than the number of clusters");

  // Map each cluster-hub to a distinct random row of the base matrix.
  const std::vector<std::size_t> hub_rows =
      rng.Sample(static_cast<std::size_t>(hub_base.size()),
                 static_cast<std::size_t>(config.num_clusters));

  const int total_nets = config.num_clusters * config.nets_per_cluster;
  std::vector<int> net_cluster(static_cast<std::size_t>(total_nets));
  std::vector<LatencyMs> net_hub_latency(static_cast<std::size_t>(total_nets));
  int net = 0;
  for (int c = 0; c < config.num_clusters; ++c) {
    const double cluster_mean = rng.Uniform(kHubNetMeanLoMs, kHubNetMeanHiMs);
    for (int k = 0; k < config.nets_per_cluster; ++k, ++net) {
      net_cluster[static_cast<std::size_t>(net)] = c;
      net_hub_latency[static_cast<std::size_t>(net)] =
          rng.Uniform((1.0 - config.delta) * cluster_mean,
                      (1.0 + config.delta) * cluster_mean);
    }
  }

  const NodeId total_peers =
      static_cast<NodeId>(total_nets * config.peers_per_net);
  std::vector<ClusterLayout::PeerInfo> peers(
      static_cast<std::size_t>(total_peers));
  for (int net_id = 0; net_id < total_nets; ++net_id) {
    for (int k = 0; k < config.peers_per_net; ++k) {
      const auto peer =
          static_cast<std::size_t>(net_id * config.peers_per_net + k);
      peers[peer].net = net_id;
      peers[peer].cluster = net_cluster[static_cast<std::size_t>(net_id)];
    }
  }

  LatencyMatrix m(total_peers);
  for (NodeId a = 0; a < total_peers; ++a) {
    const auto& pa = peers[static_cast<std::size_t>(a)];
    for (NodeId b = a + 1; b < total_peers; ++b) {
      const auto& pb = peers[static_cast<std::size_t>(b)];
      LatencyMs latency = 0.0;
      if (pa.net == pb.net) {
        latency = kSameNetLatencyMs;
      } else {
        const LatencyMs up =
            net_hub_latency[static_cast<std::size_t>(pa.net)];
        const LatencyMs down =
            net_hub_latency[static_cast<std::size_t>(pb.net)];
        if (pa.cluster == pb.cluster) {
          latency = up + down;
        } else {
          const LatencyMs across = hub_base.At(
              static_cast<NodeId>(hub_rows[static_cast<std::size_t>(
                  pa.cluster)]),
              static_cast<NodeId>(
                  hub_rows[static_cast<std::size_t>(pb.cluster)]));
          latency = up + across + down;
        }
      }
      m.Set(a, b, latency);
    }
  }

  ClusterLayout layout(std::move(peers), std::move(net_cluster),
                       std::move(net_hub_latency), config.num_clusters);
  return ClusteredWorld{std::move(m), std::move(layout)};
}

ClusteredWorld GenerateClustered(const ClusteredConfig& config,
                                 util::Rng& rng) {
  ValidateClusteredConfig(config);
  const LatencyMatrix hub_base =
      GenerateKingLike(static_cast<NodeId>(config.num_clusters), rng);
  return GenerateClustered(config, hub_base, rng);
}

void ValidateEuclideanConfig(NodeId n, const EuclideanConfig& config) {
  NP_ENSURE(n >= 1, "Euclidean requires n >= 1");
  NP_ENSURE(config.dimensions >= 1, "need at least one dimension");
  NP_ENSURE(config.side_ms > 0.0, "side must be positive");
}

EuclideanWorld GenerateEuclidean(NodeId n, const EuclideanConfig& config,
                                 util::Rng& rng) {
  ValidateEuclideanConfig(n, config);
  const auto dims = static_cast<std::size_t>(config.dimensions);
  std::vector<double> coords(static_cast<std::size_t>(n) * dims);
  for (auto& c : coords) {
    c = rng.Uniform(0.0, config.side_ms);
  }
  LatencyMatrix m(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      double sq = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {
        const double diff = coords[static_cast<std::size_t>(i) * dims + d] -
                            coords[static_cast<std::size_t>(j) * dims + d];
        sq += diff * diff;
      }
      // Two random points can coincide; keep a strictly positive floor
      // so "closest" stays well-defined.
      m.Set(i, j, std::max(std::sqrt(sq), 1e-6));
    }
  }
  return EuclideanWorld{std::move(m), std::move(coords), config.dimensions};
}

}  // namespace np::matrix
