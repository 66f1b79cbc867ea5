// Tests for Meridian's incremental membership (churn) maintenance.
#include <gtest/gtest.h>

#include <set>

#include "algos/tiers.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "matrix/generators.h"
#include "meridian/meridian.h"

namespace np::meridian {
namespace {

using core::MatrixSpace;
using core::MeteredSpace;

std::vector<NodeId> FirstN(NodeId n) {
  std::vector<NodeId> v;
  for (NodeId i = 0; i < n; ++i) {
    v.push_back(i);
  }
  return v;
}

TEST(MeridianChurn, AddMemberMaintainsRingInvariants) {
  util::Rng world_rng(1);
  const auto world = matrix::GenerateEuclidean(300, {}, world_rng);
  const MatrixSpace space(world.matrix);
  MeridianOverlay overlay{MeridianConfig{}};
  util::Rng rng(2);
  overlay.Build(space, FirstN(250), rng);
  for (NodeId joiner = 250; joiner < 300; ++joiner) {
    overlay.AddMember(joiner, rng);
  }
  EXPECT_EQ(overlay.members().size(), 300u);
  for (NodeId owner : {NodeId{0}, NodeId{250}, NodeId{299}}) {
    const auto& rings = overlay.RingsOf(owner);
    for (std::size_t r = 0; r < rings.size(); ++r) {
      EXPECT_LE(rings[r].size(),
                static_cast<std::size_t>(MeridianConfig{}.ring_size));
      for (const RingEntry& entry : rings[r]) {
        EXPECT_EQ(overlay.RingIndexFor(entry.latency_ms),
                  static_cast<int>(r));
        EXPECT_NE(entry.member, owner);
      }
    }
  }
}

TEST(MeridianChurn, JoinersBecomeDiscoverable) {
  // A joiner whose LAN mate enters later must become findable.
  matrix::ClusteredConfig config;
  config.num_clusters = 3;
  config.nets_per_cluster = 15;
  util::Rng world_rng(3);
  const auto world = matrix::GenerateClustered(config, world_rng);
  const MatrixSpace space(world.matrix);

  // Build without the last 10 peers, then join them.
  std::vector<NodeId> initial = FirstN(world.layout.peer_count() - 10);
  MeridianOverlay overlay{MeridianConfig{}};
  util::Rng rng(4);
  overlay.Build(space, initial, rng);
  for (NodeId joiner = world.layout.peer_count() - 10;
       joiner < world.layout.peer_count() - 1; ++joiner) {
    overlay.AddMember(joiner, rng);
  }
  // Query for the held-out target; its exact closest (likely a recent
  // joiner or an original member) must be reachable. We only require a
  // valid member with finite latency — discoverability, not accuracy.
  const NodeId target = world.layout.peer_count() - 1;
  const MeteredSpace metered(space);
  const auto result = overlay.FindNearest(target, metered, rng);
  const std::set<NodeId> member_set(overlay.members().begin(),
                                    overlay.members().end());
  EXPECT_EQ(member_set.count(result.found), 1u);
  EXPECT_LT(result.found_latency_ms, kInfiniteLatency);
}

TEST(MeridianChurn, RemoveMemberPurgesAllRings) {
  util::Rng world_rng(5);
  const auto world = matrix::GenerateEuclidean(200, {}, world_rng);
  const MatrixSpace space(world.matrix);
  MeridianOverlay overlay{MeridianConfig{}};
  util::Rng rng(6);
  overlay.Build(space, FirstN(200), rng);

  for (NodeId leaver : {NodeId{0}, NodeId{50}, NodeId{199}}) {
    overlay.RemoveMember(leaver);
    for (NodeId owner : overlay.members()) {
      for (const auto& ring : overlay.RingsOf(owner)) {
        for (const RingEntry& entry : ring) {
          EXPECT_NE(entry.member, leaver);
        }
      }
    }
  }
  EXPECT_EQ(overlay.members().size(), 197u);
}

TEST(MeridianChurn, ErrorsOnMisuse) {
  util::Rng world_rng(7);
  const auto world = matrix::GenerateEuclidean(20, {}, world_rng);
  const MatrixSpace space(world.matrix);
  MeridianOverlay overlay{MeridianConfig{}};
  util::Rng rng(8);
  overlay.Build(space, FirstN(10), rng);
  EXPECT_THROW(overlay.AddMember(5, rng), util::Error);     // already in
  EXPECT_THROW(overlay.RemoveMember(15), util::Error);      // not in
  EXPECT_TRUE(overlay.SupportsChurn());
  // The baselines maintain membership only, so churn is free for them.
  core::OracleNearest oracle;
  EXPECT_TRUE(oracle.SupportsChurn());
  EXPECT_THROW(oracle.AddMember(1, rng), util::Error);  // Build not run
  // Tiers repairs incrementally by default; with the repair disabled it
  // must refuse churn (the scenario engine rebuilds it per epoch), and
  // either way AddMember before Build is an error.
  algos::TiersNearest tiers{algos::TiersConfig{}};
  EXPECT_TRUE(tiers.SupportsChurn());
  EXPECT_THROW(tiers.AddMember(1, rng), util::Error);  // Build not run
  algos::TiersConfig rebuild_config;
  rebuild_config.incremental = false;
  algos::TiersNearest rebuild_tiers{rebuild_config};
  EXPECT_FALSE(rebuild_tiers.SupportsChurn());
}

TEST(MeridianChurn, ChurnExperimentTracksRebuildAccuracy) {
  util::Rng world_rng(9);
  matrix::EuclideanConfig econfig;
  econfig.dimensions = 3;
  const auto world = matrix::GenerateEuclidean(500, econfig, world_rng);
  const MatrixSpace space(world.matrix);

  // ~200 fixed-mix events over four measurement epochs.
  core::ChurnScheduleConfig churn;
  churn.join_fraction = 0.5;
  churn.events_per_s = 200 / churn.duration_s;
  churn.seed = 10;
  core::ScenarioConfig config;
  config.initial_overlay = 400;
  config.epochs = 4;
  config.queries_per_epoch = 150;
  config.seed = 10;
  MeridianOverlay maintained{MeridianConfig{}};
  const auto report = core::RunScenario(
      space, nullptr, maintained, core::ChurnSchedule::Poisson(churn), config);
  ASSERT_EQ(report.epochs.size(), 4u);
  EXPECT_GT(report.final_members, 100);

  // The rebuild bound: a fresh overlay of the final size, same world.
  MeridianOverlay fresh{MeridianConfig{}};
  core::ExperimentConfig rebuild;
  rebuild.overlay_size = report.final_members;
  rebuild.num_queries = 150;
  util::Rng rng(10);
  const auto rebuilt = core::RunGenericExperiment(space, fresh, rebuild, rng);
  EXPECT_GT(rebuilt.p_exact_closest, 0.4);
  // Incremental maintenance must stay within reach of the rebuild:
  // the final epoch's accuracy at >= 60% of the fresh overlay's.
  EXPECT_GT(report.epochs.back().p_exact_closest,
            0.6 * rebuilt.p_exact_closest);
}

}  // namespace
}  // namespace np::meridian
