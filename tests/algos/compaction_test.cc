// Occurrence/back-reference compaction and crash-purge convergence.
//
// The occurrence (KR, Meridian) and back-reference (Tapestry) lists
// are append-mostly: a departed peer's stale entries linger until the
// owner-side purge walks them. Under sustained churn that is an O(ops)
// leak unless the lists compact; these tests cycle one node through
// join/leave a thousand times and assert the lists stay O(live) — a
// broken compactor shows up as ~cycle-count growth.
//
// Crash-purge convergence: after a crash is detected and RemoveMember
// repairs run, no overlay structure may still name the dead peer — a
// query driven through a FaultySpace whose crashed set contains the
// node must never issue a probe that fails.
#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "algos/karger_ruhl.h"
#include "algos/tapestry.h"
#include "core/probe_policy.h"
#include "matrix/faulty_space.h"
#include "matrix/generators.h"
#include "meridian/meridian.h"

namespace np::algos {
namespace {

using core::MatrixSpace;

std::vector<NodeId> FirstN(NodeId n) {
  std::vector<NodeId> v;
  for (NodeId i = 0; i < n; ++i) {
    v.push_back(i);
  }
  return v;
}

matrix::EuclideanWorld ControlWorld(std::uint64_t seed, NodeId n = 200) {
  util::Rng rng(seed);
  matrix::EuclideanConfig config;
  config.dimensions = 3;
  return matrix::GenerateEuclidean(n, config, rng);
}

constexpr NodeId kOverlay = 60;
constexpr int kCycles = 1000;
// O(live) bound: far below the ~kCycles entries a broken compactor
// leaks, far above any honest live-reference count at 60 members.
constexpr std::size_t kLengthBound = 320;

TEST(Compaction, KargerRuhlOccurrenceListsStayLinearInLiveState) {
  const auto world = ControlWorld(3);
  const MatrixSpace space(world.matrix);
  KargerRuhlNearest algo{KargerRuhlConfig{}};
  util::Rng rng(7);
  algo.Build(space, FirstN(kOverlay), rng);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    algo.AddMember(kOverlay + 40, rng);
    algo.RemoveMember(kOverlay + 40);
  }
  for (NodeId member = 0; member < kOverlay; ++member) {
    EXPECT_LE(algo.OccurrenceEntries(member), kLengthBound) << member;
  }
  // The overlay still answers queries after the churn storm.
  const core::MeteredSpace metered(space);
  const auto result = algo.FindNearest(kOverlay + 10, metered, rng);
  EXPECT_NE(result.found, kInvalidNode);
  EXPECT_NE(result.found, kOverlay + 40);
}

TEST(Compaction, MeridianOccurrenceListsStayLinearInLiveState) {
  const auto world = ControlWorld(5);
  const MatrixSpace space(world.matrix);
  meridian::MeridianConfig config;
  config.ring_size = 4;
  config.gossip_bootstrap_contacts = 3;
  meridian::MeridianOverlay algo(config);
  util::Rng rng(9);
  algo.Build(space, FirstN(kOverlay), rng);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    algo.AddMember(kOverlay + 40, rng);
    algo.RemoveMember(kOverlay + 40);
  }
  for (NodeId member = 0; member < kOverlay; ++member) {
    EXPECT_LE(algo.OccurrenceEntries(member), kLengthBound) << member;
  }
  const core::MeteredSpace metered(space);
  const auto result = algo.FindNearest(kOverlay + 10, metered, rng);
  EXPECT_NE(result.found, kInvalidNode);
  EXPECT_NE(result.found, kOverlay + 40);
}

TEST(Compaction, TapestryBackRefListsStayLinearInLiveState) {
  const auto world = ControlWorld(11);
  const MatrixSpace space(world.matrix);
  TapestryNearest algo{TapestryConfig{}};
  util::Rng rng(13);
  algo.Build(space, FirstN(kOverlay), rng);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    algo.AddMember(kOverlay + 40, rng);
    algo.RemoveMember(kOverlay + 40);
  }
  for (NodeId member = 0; member < kOverlay; ++member) {
    EXPECT_LE(algo.RefEntries(member), kLengthBound) << member;
  }
  const core::MeteredSpace metered(space);
  const auto result = algo.FindNearest(kOverlay + 10, metered, rng);
  EXPECT_NE(result.found, kInvalidNode);
  EXPECT_NE(result.found, kOverlay + 40);
}

// --- Crash-purge convergence ----------------------------------------------

/// After RemoveMember repairs, queries driven through a FaultySpace
/// with the dead peers in its crashed set must never hit one: a single
/// failed probe means some structure still routed into a purged node.
template <typename Algo>
void ExpectNoProbeTouchesCrashed(Algo& algo, const MatrixSpace& space,
                                 util::Rng& rng) {
  std::unordered_set<NodeId> crashed = {4, 17, 23};
  for (const NodeId dead : crashed) {
    algo.RemoveMember(dead);
  }
  const matrix::FaultySpace faulty(space, 0.0, /*seed=*/1, &crashed);
  const core::MeteredSpace metered(faulty);
  core::ProbeCounter counter;
  const core::ProbePolicy policy(/*max_attempts=*/1, &counter);
  algo.AttachProbePolicy(&policy);
  for (NodeId target = kOverlay; target < kOverlay + 40; ++target) {
    const auto result = algo.FindNearest(target, metered, rng);
    EXPECT_NE(result.found, kInvalidNode) << target;
    EXPECT_EQ(crashed.count(result.found), 0u) << target;
  }
  algo.AttachProbePolicy(nullptr);
  EXPECT_EQ(counter.Read().failed_probes, 0u);
  EXPECT_GT(metered.probes(), 0u);
}

TEST(CrashPurge, KargerRuhlConvergesAfterRemoveMember) {
  const auto world = ControlWorld(17);
  const MatrixSpace space(world.matrix);
  KargerRuhlNearest algo{KargerRuhlConfig{}};
  util::Rng rng(19);
  algo.Build(space, FirstN(kOverlay), rng);
  ExpectNoProbeTouchesCrashed(algo, space, rng);
}

TEST(CrashPurge, MeridianConvergesAfterRemoveMember) {
  const auto world = ControlWorld(23);
  const MatrixSpace space(world.matrix);
  meridian::MeridianConfig config;
  config.ring_size = 4;
  config.gossip_bootstrap_contacts = 3;
  meridian::MeridianOverlay algo(config);
  util::Rng rng(29);
  algo.Build(space, FirstN(kOverlay), rng);
  ExpectNoProbeTouchesCrashed(algo, space, rng);
}

TEST(CrashPurge, TapestryConvergesAfterRemoveMember) {
  const auto world = ControlWorld(31);
  const MatrixSpace space(world.matrix);
  TapestryNearest algo{TapestryConfig{}};
  util::Rng rng(37);
  algo.Build(space, FirstN(kOverlay), rng);
  ExpectNoProbeTouchesCrashed(algo, space, rng);
}

// --- Post-blackout purge convergence ---------------------------------------

/// A 40% regional crash is the mass-leave shape the cycling tests
/// above never produce: hundreds of RemoveMember purges land on the
/// SAME survivors' occurrence/back-reference lists in one burst, with
/// no interleaved joins to trigger the growth-doubling compactor.
/// After the purge storm plus one light post-blackout churn cycle the
/// lists must be back to O(live) — a purge path that only tombstones
/// (or a compactor keyed solely on appends) leaks the whole region.
template <typename Algo, typename LengthFn>
void ExpectPurgeConvergesAfterRegionalCrash(Algo& algo,
                                            const MatrixSpace& space,
                                            const matrix::ClusterLayout& layout,
                                            util::Rng& rng,
                                            LengthFn&& length_of) {
  std::vector<NodeId> dead;
  std::vector<NodeId> live;
  for (NodeId n = 0; n < layout.peer_count(); ++n) {
    (layout.ClusterOf(n) < 2 ? dead : live).push_back(n);
  }
  ASSERT_GE(dead.size() * 5, layout.peer_count() * 2u);  // >= 40% regional
  for (const NodeId d : dead) {
    algo.RemoveMember(d);
  }
  // Light post-blackout churn: enough membership activity for the
  // repair path to run, nowhere near enough appends to mask a leak.
  for (int cycle = 0; cycle < 20; ++cycle) {
    algo.RemoveMember(live[static_cast<std::size_t>(cycle)]);
    algo.AddMember(live[static_cast<std::size_t>(cycle)], rng);
  }
  // O(live) bound with the same headroom ratio as the cycling tests
  // (320 entries at 60 live): far above honest reference counts, far
  // below the ~|dead| stale entries an unpurged region would leave.
  const std::size_t bound = 6 * live.size();
  for (const NodeId member : live) {
    EXPECT_LE(length_of(member), bound) << member;
  }
  // And the survivors still answer: no query may route into the dead
  // region (FaultySpace turns any such probe into a hard failure).
  std::unordered_set<NodeId> crashed(dead.begin(), dead.end());
  const matrix::FaultySpace faulty(space, 0.0, /*seed=*/3, &crashed);
  const core::MeteredSpace metered(faulty);
  core::ProbeCounter counter;
  const core::ProbePolicy policy(/*max_attempts=*/1, &counter);
  algo.AttachProbePolicy(&policy);
  for (int q = 0; q < 40; ++q) {
    const NodeId target =
        live[static_cast<std::size_t>(rng.NextUint64(live.size()))];
    const auto result = algo.FindNearest(target, metered, rng);
    EXPECT_NE(result.found, kInvalidNode) << target;
    EXPECT_EQ(crashed.count(result.found), 0u) << target;
  }
  algo.AttachProbePolicy(nullptr);
  EXPECT_EQ(counter.Read().failed_probes, 0u);
}

matrix::ClusteredWorld RegionalWorld(std::uint64_t seed) {
  matrix::ClusteredConfig config;
  config.num_clusters = 5;
  config.nets_per_cluster = 20;
  config.peers_per_net = 2;
  config.delta = 0.5;
  util::Rng rng(seed);
  return matrix::GenerateClustered(config, rng);
}

TEST(PostBlackoutPurge, KargerRuhlListsReturnToLiveScale) {
  const auto world = RegionalWorld(41);
  const MatrixSpace space(world.matrix);
  KargerRuhlNearest algo{KargerRuhlConfig{}};
  util::Rng rng(43);
  algo.Build(space, FirstN(world.layout.peer_count()), rng);
  ExpectPurgeConvergesAfterRegionalCrash(
      algo, space, world.layout, rng,
      [&](NodeId m) { return algo.OccurrenceEntries(m); });
}

TEST(PostBlackoutPurge, MeridianListsReturnToLiveScale) {
  const auto world = RegionalWorld(47);
  const MatrixSpace space(world.matrix);
  meridian::MeridianConfig config;
  config.ring_size = 4;
  config.gossip_bootstrap_contacts = 3;
  meridian::MeridianOverlay algo(config);
  util::Rng rng(53);
  algo.Build(space, FirstN(world.layout.peer_count()), rng);
  ExpectPurgeConvergesAfterRegionalCrash(
      algo, space, world.layout, rng,
      [&](NodeId m) { return algo.OccurrenceEntries(m); });
}

TEST(PostBlackoutPurge, TapestryListsReturnToLiveScale) {
  const auto world = RegionalWorld(59);
  const MatrixSpace space(world.matrix);
  TapestryNearest algo{TapestryConfig{}};
  util::Rng rng(61);
  algo.Build(space, FirstN(world.layout.peer_count()), rng);
  ExpectPurgeConvergesAfterRegionalCrash(
      algo, space, world.layout, rng,
      [&](NodeId m) { return algo.RefEntries(m); });
}

}  // namespace
}  // namespace np::algos
