// Integration tests for the §5 mechanisms composed over the full
// synthetic-Internet pipeline: directories fed from traceroute-built
// UCLs, hybrids evaluated against ground truth, Chord-backed maps
// agreeing with the perfect map end to end.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/experiment.h"
#include "mech/hybrid.h"
#include "meridian/meridian.h"
#include "net/tools.h"

namespace np {
namespace {

struct PipelineWorld {
  PipelineWorld()
      : world_rng(501), topology(MakeTopology(world_rng)) {}

  static net::Topology MakeTopology(util::Rng& rng) {
    net::TopologyConfig config = net::SmallTestConfig();
    config.azureus_hosts = 3000;
    config.azureus_in_endnet_prob = 0.35;
    config.azureus_tcp_respond_prob = 1.0;
    config.azureus_trace_respond_prob = 1.0;
    return net::Topology::Generate(config, rng);
  }

  util::Rng world_rng;
  net::Topology topology;
};

struct Split {
  std::vector<NodeId> members;
  std::vector<NodeId> targets;
};

Split MakeSplit(const net::Topology& topology, int num_targets,
                std::uint64_t seed) {
  auto peers = topology.HostsOfKind(net::HostKind::kAzureusPeer);
  util::Rng rng(seed);
  rng.Shuffle(peers);
  Split split;
  split.targets.assign(peers.end() - num_targets, peers.end());
  split.members.assign(peers.begin(), peers.end() - num_targets);
  return split;
}

TEST(HybridPipeline, UclHybridDominatesPlainMeridianOnLanTargets) {
  PipelineWorld w;
  const mech::TopologySpace space(w.topology);
  const Split split = MakeSplit(w.topology, 150, 502);

  // Count per scheme: targets answered with a same-end-network peer
  // when one exists.
  const auto same_net_rate = [&](core::NearestPeerAlgorithm& algo,
                                 std::uint64_t seed) {
    util::Rng rng(seed);
    util::Rng build_rng(seed + 1);
    algo.Build(space, split.members, build_rng);
    const core::MeteredSpace metered(space);
    int possible = 0;
    int found = 0;
    for (NodeId target : split.targets) {
      const auto& ht = w.topology.host(target);
      if (ht.endnet_id < 0) {
        continue;
      }
      bool exists = false;
      for (NodeId m : split.members) {
        if (w.topology.host(m).endnet_id == ht.endnet_id) {
          exists = true;
          break;
        }
      }
      if (!exists) {
        continue;
      }
      ++possible;
      const auto result = algo.FindNearest(target, metered, rng);
      if (w.topology.host(result.found).endnet_id == ht.endnet_id) {
        ++found;
      }
    }
    EXPECT_GT(possible, 10);
    return static_cast<double>(found) / possible;
  };

  meridian::MeridianOverlay plain{meridian::MeridianConfig{}};
  const double plain_rate = same_net_rate(plain, 600);

  mech::HybridNearest hybrid(w.topology, mech::Mechanism::kUcl,
                             std::make_unique<meridian::MeridianOverlay>(
                                 meridian::MeridianConfig{}));
  const double hybrid_rate = same_net_rate(hybrid, 601);

  EXPECT_GT(hybrid_rate, 0.9);
  EXPECT_GT(hybrid_rate, plain_rate + 0.2);
}

TEST(HybridPipeline, ChordBackedDirectoryMatchesPerfectMap) {
  // The Chord backend must be semantically transparent: the same
  // mappings in, the same candidates out — only the routing-hop bill
  // differs. (End-to-end *answers* can still differ on targets with no
  // candidates, where the hybrid falls back to a random member and the
  // two runs' RNG streams have diverged.)
  PipelineWorld w;
  const Split split = MakeSplit(w.topology, 60, 503);

  mech::PerfectMap perfect_map;
  mech::ChordMap chord_map(split.members, /*id_salt=*/0xFACE);
  mech::UclDirectory perfect_dir(perfect_map);
  mech::UclDirectory chord_dir(chord_map);
  util::Rng rng(504);
  for (NodeId peer : split.members) {
    perfect_dir.RegisterPeer(w.topology, peer, rng);
    chord_dir.RegisterPeer(w.topology, peer, rng);
  }

  int with_candidates = 0;
  for (NodeId target : split.targets) {
    const auto a =
        perfect_dir.Candidates(w.topology, target, rng, kInfiniteLatency);
    const auto b =
        chord_dir.Candidates(w.topology, target, rng, kInfiniteLatency);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].peer, b[i].peer);
      EXPECT_DOUBLE_EQ(a[i].estimated_ms, b[i].estimated_ms);
    }
    with_candidates += a.empty() ? 0 : 1;
  }
  EXPECT_GT(with_candidates, 10);
  EXPECT_GT(chord_map.total_hops(), 0u);
  EXPECT_EQ(perfect_map.total_hops(), 0u);
}

TEST(HybridPipeline, MechanismsComposeWithExperimentRunnerMetrics) {
  // The hybrid plugged into the generic runner must behave like any
  // other NearestPeerAlgorithm (probe accounting included).
  PipelineWorld w;
  const mech::TopologySpace space(w.topology);

  mech::HybridNearest hybrid(w.topology, mech::Mechanism::kPrefix,
                             std::make_unique<core::RandomNearest>());
  core::ExperimentConfig run;
  run.overlay_size = static_cast<NodeId>(w.topology.hosts().size()) - 50;
  run.num_queries = 100;
  util::Rng rng(506);
  const auto metrics = core::RunGenericExperiment(space, hybrid, run, rng);
  EXPECT_GT(metrics.mean_probes, 0.0);
  EXPECT_GE(metrics.p_exact_closest, 0.0);
  EXPECT_LE(metrics.p_exact_closest, 1.0);
  EXPECT_GE(metrics.mean_stretch, 1.0 - 1e-9);
}

TEST(HybridPipeline, RegistryDeploymentControlsCoverage) {
  // The hybrid deploys at its fixed probability; the registry takes
  // any, so coverage is checked at the two extremes.
  PipelineWorld w;
  const Split split = MakeSplit(w.topology, 100, 507);

  int answered_none = 0;
  int answered_full = 0;
  for (const double deploy : {0.0, 1.0}) {
    util::Rng rng(508);
    mech::EndNetworkRegistry registry(
        w.topology, deploy, mech::HybridNearest::kRegistryLargeNetworkHosts,
        rng);
    for (NodeId peer : split.members) {
      registry.RegisterPeer(peer);
    }
    int answered = 0;
    for (NodeId target : split.targets) {
      answered += registry.Query(target).empty() ? 0 : 1;
    }
    (deploy == 0.0 ? answered_none : answered_full) = answered;
    if (deploy == 0.0) {
      EXPECT_EQ(registry.deployed_count(), 0);
    }
  }
  EXPECT_EQ(answered_none, 0);
  EXPECT_GT(answered_full, answered_none);
}

}  // namespace
}  // namespace np
