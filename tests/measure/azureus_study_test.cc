#include "measure/azureus_study.h"

#include <gtest/gtest.h>

#include <set>

namespace np::measure {
namespace {

struct StudyFixture {
  explicit StudyFixture(std::uint64_t seed, int peers = 2000)
      : rng(seed),
        topology(MakeTopology(peers, rng)),
        tools(topology, util::Rng(seed ^ 0xA22)) {}

  static net::Topology MakeTopology(int peers, util::Rng& rng) {
    net::TopologyConfig config = net::SmallTestConfig();
    config.dns_recursive_hosts = 0;
    config.azureus_hosts = peers;
    return net::Topology::Generate(config, rng);
  }

  util::Rng rng;
  net::Topology topology;
  net::Tools tools;
};

TEST(BoundedWindow, FindsLargestFactorWindow) {
  // 1, 1.2, 1.4 fit within x1.5; 5 and 9 don't join them.
  const std::vector<double> sorted{1.0, 1.2, 1.4, 5.0, 9.0};
  const auto [lo, hi] = LargestBoundedWindow(sorted, 1.5);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 3u);
}

TEST(BoundedWindow, PrefersLaterLargerWindow) {
  const std::vector<double> sorted{1.0, 3.0, 3.1, 3.2, 4.0};
  const auto [lo, hi] = LargestBoundedWindow(sorted, 1.5);
  EXPECT_EQ(lo, 1u);
  EXPECT_EQ(hi, 5u);  // 3.0 .. 4.0 all within x1.5
}

TEST(BoundedWindow, SingletonAndUniform) {
  const std::vector<double> one{7.0};
  EXPECT_EQ(LargestBoundedWindow(one, 1.5),
            (std::pair<std::size_t, std::size_t>{0, 1}));
  const std::vector<double> uniform{2.0, 2.0, 2.0};
  EXPECT_EQ(LargestBoundedWindow(uniform, 1.5),
            (std::pair<std::size_t, std::size_t>{0, 3}));
}

TEST(BoundedWindow, RequiresSortedInput) {
  EXPECT_THROW(LargestBoundedWindow({3.0, 1.0}, 1.5), util::Error);
  EXPECT_THROW(LargestBoundedWindow({1.0, 2.0}, 0.5), util::Error);
}

TEST(AzureusStudy, FiltersFollowThePaperPipeline) {
  StudyFixture f(1);
  const auto result = RunAzureusStudy(f.topology, f.tools);
  EXPECT_EQ(result.total_ips, 2000);
  // Responsiveness screen keeps a strict subset; unique-upstream keeps
  // a subset of that.
  EXPECT_LT(result.responsive, result.total_ips);
  EXPECT_GT(result.responsive, 0);
  EXPECT_LE(result.unique_upstream, result.responsive);
  EXPECT_GT(result.unique_upstream, 0);
  // Every clustered peer is accounted once.
  int clustered = 0;
  std::set<NodeId> seen;
  for (const auto& c : result.clusters) {
    ASSERT_EQ(c.peers.size(), c.hub_latencies.size());
    for (NodeId p : c.peers) {
      EXPECT_TRUE(seen.insert(p).second);
    }
    clustered += static_cast<int>(c.peers.size());
  }
  EXPECT_LE(clustered, result.unique_upstream);
}

TEST(AzureusStudy, HubLatenciesArePositiveAndPlausible) {
  StudyFixture f(2);
  const auto result = RunAzureusStudy(f.topology, f.tools);
  for (const auto& c : result.clusters) {
    for (LatencyMs l : c.hub_latencies) {
      EXPECT_GT(l, 0.0);
      EXPECT_LT(l, 200.0);
    }
  }
}

TEST(AzureusStudy, PrunedClustersRespectFactorBound) {
  StudyFixture f(3);
  const auto result = RunAzureusStudy(f.topology, f.tools);
  int nontrivial = 0;
  for (const auto& c : result.clusters) {
    ASSERT_LE(c.pruned_peers.size(), c.peers.size());
    ASSERT_EQ(c.pruned_peers.size(), c.pruned_latencies.size());
    if (c.pruned_latencies.size() >= 2) {
      const auto [min_it, max_it] = std::minmax_element(
          c.pruned_latencies.begin(), c.pruned_latencies.end());
      EXPECT_LE(*max_it, kPruneFactor * *min_it + 1e-9);
      ++nontrivial;
    }
  }
  EXPECT_GT(nontrivial, 0);
}

TEST(AzureusStudy, ClusterMembersShareTheHubRouter) {
  StudyFixture f(4);
  const auto result = RunAzureusStudy(f.topology, f.tools);
  // The inferred hub must be a router on each member's up-chain most
  // of the time (trace noise can in rare cases hide the true last
  // hop, promoting an upstream router to hub).
  int checked = 0;
  int on_chain = 0;
  for (const auto& c : result.clusters) {
    for (NodeId p : c.peers) {
      const auto chain = f.topology.UpChain(p);
      ++checked;
      if (std::find(chain.begin(), chain.end(), c.hub) != chain.end()) {
        ++on_chain;
      }
    }
  }
  ASSERT_GT(checked, 0);
  EXPECT_GT(static_cast<double>(on_chain) / checked, 0.9);
}

TEST(AzureusStudy, SizeSummariesAreConsistent) {
  StudyFixture f(5);
  const auto result = RunAzureusStudy(f.topology, f.tools);
  const auto unpruned = result.UnprunedSizes();
  const auto pruned = result.PrunedSizes();
  ASSERT_EQ(unpruned.size(), pruned.size());
  ASSERT_FALSE(unpruned.empty());
  EXPECT_TRUE(std::is_sorted(unpruned.rbegin(), unpruned.rend()));
  EXPECT_GE(unpruned.front(), pruned.front());
  const double frac_all = result.FractionInPrunedClustersAtLeast(1);
  const double frac_large = result.FractionInPrunedClustersAtLeast(
      unpruned.front() + 1);
  EXPECT_GE(frac_all, frac_large);
  EXPECT_DOUBLE_EQ(frac_large, 0.0);
}

TEST(AzureusStudy, LargestPrunedReturnsDescending) {
  StudyFixture f(6);
  const auto result = RunAzureusStudy(f.topology, f.tools);
  const auto top = result.LargestPruned(5);
  ASSERT_LE(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1]->pruned_peers.size(), top[i]->pruned_peers.size());
  }
}

TEST(AzureusStudy, ConcentratorsProduceMultiPeerClusters) {
  // Home users hang off shared concentrators; with 2000 peers some
  // concentrator must serve several responsive peers — the clustering
  // condition's raw material.
  StudyFixture f(7);
  const auto result = RunAzureusStudy(f.topology, f.tools);
  const auto sizes = result.UnprunedSizes();
  ASSERT_FALSE(sizes.empty());
  EXPECT_GE(sizes.front(), 3);
}

}  // namespace
}  // namespace np::measure
