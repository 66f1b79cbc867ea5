// Tests for the §5 composite proximity addresses (coordinates + UCL
// extension).
#include <gtest/gtest.h>

#include "mech/composite.h"
#include "mech/topology_space.h"
#include "net/tools.h"

namespace np::mech {
namespace {

/// The topology every test reads, generated once per process.
struct CompositeWorld {
  CompositeWorld()
      : world_rng(1),
        topology(MakeTopology(world_rng)),
        space(topology),
        peers(topology.HostsOfKind(net::HostKind::kAzureusPeer)),
        // Coordinates are *measured*: train through realistic noise so
        // LAN-scale differences cannot leak into them (the paper's
        // premise for why coordinates alone fail).
        noisy(space, 0.01, 77, 0.4) {}

  static net::Topology MakeTopology(util::Rng& rng) {
    net::TopologyConfig config = net::SmallTestConfig();
    config.azureus_hosts = 1200;
    config.azureus_in_endnet_prob = 0.5;
    config.azureus_tcp_respond_prob = 1.0;
    config.azureus_trace_respond_prob = 1.0;
    return net::Topology::Generate(config, rng);
  }

  util::Rng world_rng;
  net::Topology topology;
  TopologySpace space;
  std::vector<NodeId> peers;
  core::NoisySpace noisy;
};

const CompositeWorld& World() {
  static const CompositeWorld world;
  return world;
}

/// A coord-vivaldi overlay over every peer. Training dominates the
/// suite's runtime, so it happens once, and only for the tests that
/// read coordinates.
const algos::CoordNearest& TrainedCoordinates() {
  static const algos::CoordNearest coordinates = [] {
    algos::CoordNearest trained(algos::CoordConfig{});
    util::Rng rng(2);
    trained.Build(World().noisy, World().peers, rng);
    return trained;
  }();
  return coordinates;
}

TEST(Composite, SharedRouterGivesUclEstimate) {
  const CompositeWorld& f = World();
  // A shared-router estimate never reads coordinates: PredictedLatency
  // of this unbuilt overlay would throw for every peer.
  const algos::CoordNearest untrained(algos::CoordConfig{});
  CompositeProximity composite(f.topology, untrained);
  for (NodeId p : f.peers) {
    composite.RegisterPeer(p);
  }
  int shared_pairs = 0;
  for (std::size_t i = 0; i < f.peers.size() && shared_pairs < 200; i += 3) {
    for (std::size_t j = i + 1; j < f.peers.size() && shared_pairs < 200;
         j += 7) {
      const NodeId a = f.peers[i];
      const NodeId b = f.peers[j];
      if (!composite.SharesUpstreamRouter(a, b)) {
        continue;
      }
      ++shared_pairs;
      const LatencyMs estimate = composite.EstimateLatency(a, b);
      const LatencyMs truth = f.topology.LatencyBetween(a, b);
      // No false positives (§5's key advantage over the prefix
      // heuristic): in tree routing the sum of legs through a shared
      // ancestor upper-bounds the true RTT, so the estimate never
      // makes a far peer look near. The 0.5 ms slack covers the one
      // modeled exception: intra-LAN RTT is a per-network constant,
      // not the sum of host->gateway legs.
      //
      // Overestimates DO happen — when the genuinely shared low
      // router is traceroute-invisible, the deepest *visible* shared
      // router sits higher — which is the false-negative mode the
      // paper attributes to incomplete UCL maps.
      EXPECT_GE(estimate + 0.5, truth);
    }
  }
  EXPECT_GT(shared_pairs, 50);
}

TEST(Composite, FallsBackToCoordinatesOtherwise) {
  const CompositeWorld& f = World();
  const algos::CoordNearest& coordinates = TrainedCoordinates();
  CompositeProximity composite(f.topology, coordinates);
  for (NodeId p : f.peers) {
    composite.RegisterPeer(p);
  }
  int checked = 0;
  for (std::size_t i = 0; i < f.peers.size() && checked < 100; i += 11) {
    for (std::size_t j = i + 1; j < f.peers.size() && checked < 100;
         j += 13) {
      const NodeId a = f.peers[i];
      const NodeId b = f.peers[j];
      if (composite.SharesUpstreamRouter(a, b)) {
        continue;
      }
      EXPECT_DOUBLE_EQ(composite.EstimateLatency(a, b),
                       coordinates.PredictedLatency(a, b));
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(Composite, ResolvesLanMatesWhereCoordinatesCannot) {
  // The paper's motivation for the composite address: rank candidates
  // for "who is my nearest peer" by estimated latency. Coordinates
  // alone almost never rank the LAN mate first inside a cluster; the
  // composite address does.
  const CompositeWorld& f = World();
  const algos::CoordNearest& coordinates = TrainedCoordinates();
  CompositeProximity composite(f.topology, coordinates);
  for (NodeId p : f.peers) {
    composite.RegisterPeer(p);
  }

  int with_mate = 0;
  int composite_hits = 0;
  int coord_hits = 0;
  for (const NodeId p : f.peers) {
    const auto& hp = f.topology.host(p);
    if (hp.endnet_id < 0) {
      continue;
    }
    // The true nearest: a same-end-network mate, if any.
    NodeId mate = kInvalidNode;
    for (const NodeId q : f.peers) {
      if (q != p && f.topology.host(q).endnet_id == hp.endnet_id) {
        mate = q;
        break;
      }
    }
    if (mate == kInvalidNode) {
      continue;
    }
    ++with_mate;

    NodeId best_composite = kInvalidNode;
    double best_composite_estimate = 1e18;
    NodeId best_coord = kInvalidNode;
    double best_coord_estimate = 1e18;
    for (const NodeId q : f.peers) {
      if (q == p) {
        continue;
      }
      const double ce = composite.EstimateLatency(p, q);
      if (ce < best_composite_estimate) {
        best_composite_estimate = ce;
        best_composite = q;
      }
      const double ve = coordinates.PredictedLatency(p, q);
      if (ve < best_coord_estimate) {
        best_coord_estimate = ve;
        best_coord = q;
      }
    }
    // "Hit" = the top-ranked candidate is in the peer's end-network.
    if (best_composite != kInvalidNode &&
        f.topology.host(best_composite).endnet_id == hp.endnet_id) {
      ++composite_hits;
    }
    if (best_coord != kInvalidNode &&
        f.topology.host(best_coord).endnet_id == hp.endnet_id) {
      ++coord_hits;
    }
    if (with_mate >= 120) {
      break;
    }
  }
  ASSERT_GT(with_mate, 40);
  const double composite_rate =
      static_cast<double>(composite_hits) / with_mate;
  const double coord_rate = static_cast<double>(coord_hits) / with_mate;
  EXPECT_GT(composite_rate, 0.8);
  EXPECT_GT(composite_rate, coord_rate + 0.3);
}

TEST(Composite, UnregisteredPeerThrows) {
  const CompositeWorld& f = World();
  const algos::CoordNearest untrained(algos::CoordConfig{});
  CompositeProximity composite(f.topology, untrained);
  composite.RegisterPeer(f.peers[0]);
  EXPECT_FALSE(composite.IsRegistered(f.peers[1]));
  EXPECT_THROW(composite.EstimateLatency(f.peers[0], f.peers[1]),
               util::Error);
  EXPECT_THROW(composite.SharesUpstreamRouter(f.peers[1], f.peers[0]),
               util::Error);
}

}  // namespace
}  // namespace np::mech
