#include "measure/path_graph.h"

#include <gtest/gtest.h>

#include "measure/heuristic_eval.h"
#include "net/ip.h"

namespace np::measure {
namespace {

struct GraphFixture {
  explicit GraphFixture(std::uint64_t seed, int peers = 1500)
      : rng(seed),
        topology(MakeTopology(peers, rng)),
        tools(topology, util::Rng(seed ^ 0x96)) {}

  static net::Topology MakeTopology(int peers, util::Rng& rng) {
    net::TopologyConfig config = net::SmallTestConfig();
    config.dns_recursive_hosts = 0;
    config.azureus_hosts = peers;
    return net::Topology::Generate(config, rng);
  }

  PathGraph Build() {
    return PathGraph::Build(topology, tools,
                            topology.HostsOfKind(net::HostKind::kAzureusPeer));
  }

  util::Rng rng;
  net::Topology topology;
  net::Tools tools;
};

TEST(PathGraphBuild, RetainsOnlyMeasurablePeers) {
  GraphFixture f(1);
  const auto graph = f.Build();
  EXPECT_GT(graph.peers().size(), 0u);
  EXPECT_LT(graph.peers().size(), 1500u);
  EXPECT_GT(graph.edge_count(), graph.peers().size());
  for (NodeId peer : graph.peers()) {
    const net::Host& h = f.topology.host(peer);
    // A retained peer must have been measurable somehow.
    EXPECT_TRUE(h.responds_tcp || h.responds_traceroute);
    EXPECT_TRUE(graph.ContainsPeer(peer));
  }
}

TEST(PathGraphBuild, UnknownPeerHasNoReach) {
  GraphFixture f(2);
  const auto graph = f.Build();
  // A deaf peer is not in the graph.
  NodeId deaf = kInvalidNode;
  for (const net::Host& h : f.topology.hosts()) {
    if (h.kind == net::HostKind::kAzureusPeer && !h.responds_tcp &&
        !h.responds_traceroute) {
      deaf = h.id;
      break;
    }
  }
  ASSERT_NE(deaf, kInvalidNode);
  EXPECT_FALSE(graph.ContainsPeer(deaf));
  EXPECT_TRUE(graph.ClosePeers(deaf, 10.0).empty());
}

TEST(PathGraphDijkstra, LatenciesApproximateTruth) {
  GraphFixture f(3);
  const auto graph = f.Build();
  int checked = 0;
  for (NodeId peer : graph.peers()) {
    const auto close = graph.ClosePeers(peer, 10.0);
    for (const auto& reach : close) {
      const LatencyMs truth = f.topology.LatencyBetween(peer, reach.peer);
      // The graph path goes through the traced route; allow generous
      // noise (jitter + SYN lag + minimum edge weights).
      EXPECT_NEAR(reach.latency_ms, truth, 0.6 * truth + 2.5);
      ++checked;
    }
    if (checked > 200) {
      break;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(PathGraphDijkstra, ResultsSortedAndBounded) {
  GraphFixture f(4);
  const auto graph = f.Build();
  for (std::size_t i = 0; i < graph.peers().size() && i < 50; ++i) {
    const auto close = graph.ClosePeers(graph.peers()[i], 8.0);
    for (std::size_t k = 0; k < close.size(); ++k) {
      EXPECT_LE(close[k].latency_ms, 8.0);
      EXPECT_NE(close[k].peer, graph.peers()[i]);
      if (k > 0) {
        EXPECT_GE(close[k].latency_ms, close[k - 1].latency_ms);
      }
      EXPECT_GE(close[k].router_hops, 0);
    }
  }
}

TEST(PathGraphDijkstra, HopCountsMatchTopologyForClosePairs) {
  GraphFixture f(5);
  const auto graph = f.Build();
  int checked = 0;
  int close_enough = 0;
  for (NodeId peer : graph.peers()) {
    for (const auto& reach : graph.ClosePeers(peer, 6.0)) {
      const int true_hops = f.topology.RouterHopCount(peer, reach.peer);
      ++checked;
      // The traced graph can skip silent routers, so the graph count is
      // a lower bound within a couple of hops usually.
      if (std::abs(true_hops - reach.router_hops) <= 2) {
        ++close_enough;
      }
    }
    if (checked > 150) {
      break;
    }
  }
  ASSERT_GT(checked, 10);
  EXPECT_GT(static_cast<double>(close_enough) / checked, 0.6);
}

TEST(HeuristicEval, CloseSetsPopulationConsistent) {
  GraphFixture f(6);
  const auto graph = f.Build();
  const auto sets = ComputeCloseSets(graph);
  ASSERT_EQ(sets.peers.size(), sets.close.size());
  EXPECT_GT(sets.PopulationSize(), 0);
  EXPECT_LE(sets.PopulationSize(), static_cast<int>(sets.peers.size()));
}

TEST(HeuristicEval, HopLengthGrowsWithLatency) {
  // Fig 10's qualitative shape: farther peer pairs traverse more
  // routers.
  GraphFixture f(7, 3000);
  const auto graph = f.Build();
  const auto sets = ComputeCloseSets(graph);
  const auto scatter = HopLengthVsLatency(sets);
  const auto bins = scatter.Bins();
  ASSERT_GE(bins.size(), 3u);
  // Compare first vs last populated bin medians.
  EXPECT_LT(bins.front().median, bins.back().median + 1e-9);
}

TEST(HeuristicEval, PrefixRatesMoveInOppositeDirections) {
  // Fig 11: FP falls and FN rises with longer prefixes.
  GraphFixture f(8, 3000);
  const auto graph = f.Build();
  const auto sets = ComputeCloseSets(graph);
  const auto rates = EvaluatePrefixHeuristic(f.topology, sets, 8, 24);
  ASSERT_EQ(rates.size(), 17u);
  EXPECT_GE(rates.front().median_false_positive,
            rates.back().median_false_positive);
  EXPECT_LE(rates.front().median_false_negative,
            rates.back().median_false_negative);
  // Short prefixes over-match (high FP), long prefixes under-match.
  EXPECT_GT(rates.front().median_false_positive, 0.05);
  EXPECT_GT(rates.back().median_false_negative, 0.2);
  for (const auto& r : rates) {
    EXPECT_GE(r.median_false_positive, 0.0);
    EXPECT_LE(r.median_false_positive, 1.0);
    EXPECT_GE(r.median_false_negative, 0.0);
    EXPECT_LE(r.median_false_negative, 1.0);
  }
}

TEST(HeuristicEval, InvalidOptionsThrow) {
  GraphFixture f(9, 400);
  const auto graph = f.Build();
  const auto sets = ComputeCloseSets(graph);
  EXPECT_THROW(EvaluatePrefixHeuristic(f.topology, sets, 8, 40), util::Error);
  EXPECT_THROW(EvaluatePrefixHeuristic(f.topology, sets, 0, 8), util::Error);
  EXPECT_THROW(EvaluatePrefixHeuristic(f.topology, sets, 24, 8), util::Error);
}

}  // namespace
}  // namespace np::measure
