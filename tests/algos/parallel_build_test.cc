// Pins the ParallelBuild determinism contract: for every structured
// overlay, ParallelBuild across thread counts {1, 2, 8} produces
// overlay state and query metrics bit-identical to the serial Build
// (same rng seed), bills exactly the same probes, and the scenario
// engine's reports — builds, grown joins, and occurrence-indexed leave
// purges included — are invariant in the thread budget. On a
// row-caching backend, a one-worker build loads each member's row at
// most once per level.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algos/beaconing.h"
#include "algos/karger_ruhl.h"
#include "algos/tapestry.h"
#include "algos/tiers.h"
#include "core/scenario.h"
#include "core/space_factory.h"
#include "matrix/embedded_space.h"
#include "matrix/generators.h"
#include "matrix/sparse_space.h"
#include "meridian/meridian.h"

namespace np {
namespace {

using algos::BeaconingConfig;
using algos::BeaconingNearest;
using algos::KargerRuhlConfig;
using algos::KargerRuhlNearest;
using algos::TapestryConfig;
using algos::TapestryNearest;
using algos::TiersConfig;
using algos::TiersNearest;
using core::MatrixSpace;
using core::MeteredSpace;
using core::NearestPeerAlgorithm;
using core::QueryResult;
using meridian::MeridianConfig;
using meridian::MeridianOverlay;

constexpr NodeId kWorldSize = 320;
constexpr NodeId kOverlaySize = 280;

matrix::EuclideanWorld ControlWorld(std::uint64_t seed) {
  util::Rng rng(seed);
  matrix::EuclideanConfig config;
  config.dimensions = 3;
  return matrix::GenerateEuclidean(kWorldSize, config, rng);
}

std::vector<NodeId> FirstN(NodeId n) {
  std::vector<NodeId> v;
  for (NodeId i = 0; i < n; ++i) {
    v.push_back(i);
  }
  return v;
}

/// Identical fixed-seed query set against one overlay instance.
std::vector<QueryResult> RunQueries(const core::LatencySpace& space,
                                    NearestPeerAlgorithm& algo) {
  std::vector<QueryResult> results;
  for (NodeId target = kOverlaySize; target < kWorldSize; ++target) {
    util::Rng qrng(util::Mix64(static_cast<std::uint64_t>(target)));
    const MeteredSpace metered(space);
    QueryResult r = algo.FindNearest(target, metered, qrng);
    r.probes = metered.probes();
    results.push_back(r);
  }
  return results;
}

void ExpectSameQueries(const std::vector<QueryResult>& a,
                       const std::vector<QueryResult>& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].found, b[i].found) << label << " query " << i;
    EXPECT_EQ(a[i].found_latency_ms, b[i].found_latency_ms)
        << label << " query " << i;
    EXPECT_EQ(a[i].probes, b[i].probes) << label << " query " << i;
    EXPECT_EQ(a[i].hops, b[i].hops) << label << " query " << i;
  }
}

/// Builds one serial reference and one ParallelBuild instance per
/// thread count, checks billed build probes and query metrics match
/// bitwise, and lets `compare_state` pin algorithm-specific state.
template <typename Algo>
void CheckParallelBuildEquivalence(
    std::function<std::unique_ptr<Algo>()> make,
    std::function<void(const Algo&, const Algo&)> compare_state) {
  const auto world = ControlWorld(77);
  const MatrixSpace space(world.matrix);

  const auto serial = make();
  const MeteredSpace serial_metered(space);
  {
    util::Rng rng(1234);
    serial->Build(serial_metered, FirstN(kOverlaySize), rng);
  }
  const auto serial_queries = RunQueries(space, *serial);

  for (const int threads : {1, 2, 8}) {
    const auto parallel = make();
    const MeteredSpace parallel_metered(space);
    {
      util::Rng rng(1234);
      parallel->ParallelBuild(parallel_metered, FirstN(kOverlaySize), rng,
                              threads);
    }
    const std::string label =
        serial->name() + " threads=" + std::to_string(threads);
    EXPECT_EQ(serial_metered.probes(), parallel_metered.probes()) << label;
    compare_state(*serial, *parallel);
    ExpectSameQueries(serial_queries, RunQueries(space, *parallel), label);
  }
}

/// Row misses of one one-worker ParallelBuild of the first
/// kOverlaySize nodes on a shortest-path world whose row cache holds 16
/// rows, far fewer than the overlay's members. The space dies with the
/// call, so `algo` may only be inspected, not probed, after.
std::uint64_t OneWorkerBuildMisses(NearestPeerAlgorithm& algo) {
  matrix::SparseTopologyConfig config;
  config.num_nodes = kWorldSize;
  config.row_cache_capacity = 16;
  config.seed = 5;
  const matrix::SparseTopologySpace space(config);
  util::Rng rng(1234);
  algo.ParallelBuild(space, FirstN(kOverlaySize), rng, 1);
  return space.cache_stats().misses;
}

TEST(ParallelBuild, KargerRuhlMatchesSerialBitwise) {
  CheckParallelBuildEquivalence<KargerRuhlNearest>(
      [] {
        return std::make_unique<KargerRuhlNearest>(KargerRuhlConfig{});
      },
      [](const KargerRuhlNearest& a, const KargerRuhlNearest& b) {
        ASSERT_EQ(a.members(), b.members());
        for (const NodeId member : a.members()) {
          for (int scale = 0; scale < KargerRuhlNearest::kNumScales; ++scale) {
            EXPECT_EQ(a.SamplesOf(member, scale), b.SamplesOf(member, scale))
                << "member " << member << " scale " << scale;
          }
        }
      });
}

TEST(ParallelBuild, TapestryMatchesSerialBitwise) {
  CheckParallelBuildEquivalence<TapestryNearest>(
      [] { return std::make_unique<TapestryNearest>(TapestryConfig{}); },
      [](const TapestryNearest& a, const TapestryNearest& b) {
        ASSERT_EQ(a.members(), b.members());
        for (const NodeId member : a.members()) {
          EXPECT_EQ(a.IdOf(member), b.IdOf(member));
          for (int level = 0; level < TapestryNearest::kNumDigits; ++level) {
            EXPECT_EQ(a.TableOf(member, level), b.TableOf(member, level))
                << "member " << member << " level " << level;
          }
        }
      });
}

TEST(ParallelBuild, TiersMatchesSerialBitwise) {
  CheckParallelBuildEquivalence<TiersNearest>(
      [] { return std::make_unique<TiersNearest>(TiersConfig{}); },
      [](const TiersNearest& a, const TiersNearest& b) {
        ASSERT_EQ(a.num_levels(), b.num_levels());
        a.CheckInvariants();
        b.CheckInvariants();
        for (int level = 0; level < a.num_levels(); ++level) {
          const auto level_members = a.LevelMembers(level);
          EXPECT_EQ(level_members, b.LevelMembers(level)) << level;
          // Reps are cluster-map keys; compare every rep's cluster.
          for (const NodeId rep : level_members) {
            std::vector<NodeId> ca;
            std::vector<NodeId> cb;
            try {
              ca = a.ClusterOf(level, rep);
            } catch (const util::Error&) {
              EXPECT_THROW(b.ClusterOf(level, rep), util::Error);
              continue;
            }
            cb = b.ClusterOf(level, rep);
            EXPECT_EQ(ca, cb) << "level " << level << " rep " << rep;
          }
        }
      });
}

TEST(ParallelBuild, OneWorkerBuildsLoadEachRowOncePerLevel) {
  // Tiers probes each level's members against that level's reps, so a
  // member's row is needed once per level it belongs to; no other row
  // may be loaded between two probes of one member.
  TiersNearest tiers(TiersConfig{});
  const std::uint64_t tiers_misses = OneWorkerBuildMisses(tiers);
  std::uint64_t level_members = 0;
  for (int level = 0; level < tiers.num_levels(); ++level) {
    level_members += tiers.LevelMembers(level).size();
  }
  EXPECT_GT(tiers.num_levels(), 1);
  EXPECT_LE(tiers_misses, level_members);

  // One row per member: each scans the others against its own row.
  KargerRuhlNearest karger_ruhl(KargerRuhlConfig{});
  EXPECT_EQ(OneWorkerBuildMisses(karger_ruhl),
            static_cast<std::uint64_t>(kOverlaySize));
  TapestryNearest tapestry(TapestryConfig{});
  EXPECT_EQ(OneWorkerBuildMisses(tapestry),
            static_cast<std::uint64_t>(kOverlaySize));
}

TEST(ParallelBuild, BeaconingMatchesSerialBitwise) {
  CheckParallelBuildEquivalence<BeaconingNearest>(
      [] { return std::make_unique<BeaconingNearest>(BeaconingConfig{}); },
      [](const BeaconingNearest& a, const BeaconingNearest& b) {
        EXPECT_EQ(a.members(), b.members());
        EXPECT_EQ(a.beacons(), b.beacons());
      });
}

TEST(ParallelBuild, MeridianFullKnowledgeMatchesSerialBitwise) {
  CheckParallelBuildEquivalence<MeridianOverlay>(
      [] { return std::make_unique<MeridianOverlay>(MeridianConfig{}); },
      [](const MeridianOverlay& a, const MeridianOverlay& b) {
        ASSERT_EQ(a.members(), b.members());
        for (const NodeId member : a.members()) {
          const auto& ra = a.RingsOf(member);
          const auto& rb = b.RingsOf(member);
          ASSERT_EQ(ra.size(), rb.size());
          for (std::size_t r = 0; r < ra.size(); ++r) {
            ASSERT_EQ(ra[r].size(), rb[r].size())
                << "member " << member << " ring " << r;
            for (std::size_t e = 0; e < ra[r].size(); ++e) {
              EXPECT_EQ(ra[r][e].member, rb[r][e].member);
              EXPECT_EQ(ra[r][e].latency_ms, rb[r][e].latency_ms);
            }
          }
        }
      });
}

TEST(ParallelBuild, MeridianGossipFallsBackToSerialDeterministically) {
  // The gossip build is round-sequential; ParallelBuild must still be
  // bit-identical for every thread budget (it runs the serial path).
  MeridianConfig config;
  config.full_knowledge = false;
  config.gossip_rounds = 6;
  CheckParallelBuildEquivalence<MeridianOverlay>(
      [config] { return std::make_unique<MeridianOverlay>(config); },
      [](const MeridianOverlay& a, const MeridianOverlay& b) {
        EXPECT_EQ(a.members(), b.members());
      });
}

// ---------------------------------------------------------------------------
// Engine-level invariance: grown + leave-churned overlays, built
// through ParallelBuild inside RunScenario, report bitwise-identical
// metrics for every thread count (this also exercises the
// occurrence-indexed RemoveMember purges under a real schedule).

TEST(ParallelBuild, ScenarioWithLeavesIsThreadCountInvariant) {
  matrix::EmbeddedSpaceConfig wconfig;
  wconfig.num_nodes = 700;
  wconfig.dimensions = 3;
  wconfig.side_ms = 100.0;
  wconfig.seed = 5;
  const auto world = core::SpaceFactory::MakeEmbedded(wconfig);

  core::ChurnScheduleConfig cconfig;
  cconfig.duration_s = 300.0;
  cconfig.events_per_s = 1.2;
  cconfig.mean_session_s = 90.0;  // session mode: joins AND leaves
  cconfig.seed = 21;
  const auto schedule = core::ChurnSchedule::Poisson(cconfig);

  for (const std::string name :
       {"karger-ruhl", "tiers", "beaconing", "tapestry", "meridian"}) {
    std::vector<core::ScenarioReport> reports;
    for (const int threads : {1, 2, 8}) {
      core::ScenarioConfig sconfig;
      sconfig.initial_overlay = 400;
      sconfig.epochs = 3;
      sconfig.queries_per_epoch = 40;
      sconfig.num_threads = threads;
      sconfig.seed = 3;
      std::unique_ptr<NearestPeerAlgorithm> algo;
      if (name == "karger-ruhl") {
        algo = std::make_unique<KargerRuhlNearest>(KargerRuhlConfig{});
      } else if (name == "tiers") {
        algo = std::make_unique<TiersNearest>(TiersConfig{});
      } else if (name == "beaconing") {
        algo = std::make_unique<BeaconingNearest>(BeaconingConfig{});
      } else if (name == "tapestry") {
        algo = std::make_unique<TapestryNearest>(TapestryConfig{});
      } else {
        algo = std::make_unique<MeridianOverlay>(MeridianConfig{});
      }
      reports.push_back(RunScenario(world.space(), world.layout(), *algo,
                                    schedule, sconfig));
    }
    const auto& ref = reports.front();
    for (std::size_t i = 1; i < reports.size(); ++i) {
      const auto& other = reports[i];
      EXPECT_EQ(ref.build_messages, other.build_messages) << name;
      EXPECT_EQ(ref.final_members, other.final_members) << name;
      ASSERT_EQ(ref.epochs.size(), other.epochs.size()) << name;
      for (std::size_t e = 0; e < ref.epochs.size(); ++e) {
        EXPECT_EQ(ref.epochs[e].joins, other.epochs[e].joins) << name;
        EXPECT_EQ(ref.epochs[e].leaves, other.epochs[e].leaves) << name;
        EXPECT_EQ(ref.epochs[e].p_exact_closest,
                  other.epochs[e].p_exact_closest)
            << name << " epoch " << e;
        EXPECT_EQ(ref.epochs[e].messages_per_query,
                  other.epochs[e].messages_per_query)
            << name << " epoch " << e;
        EXPECT_EQ(ref.epochs[e].maintenance_messages,
                  other.epochs[e].maintenance_messages)
            << name << " epoch " << e;
        EXPECT_EQ(ref.epochs[e].excess_latency_p95_ms,
                  other.epochs[e].excess_latency_p95_ms)
            << name << " epoch " << e;
      }
    }
  }
}

}  // namespace
}  // namespace np
