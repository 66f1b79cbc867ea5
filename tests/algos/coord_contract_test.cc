// Pins the engine contracts for the coordinate nearest-peer
// algorithms (coord-vivaldi, coord-pic, coord-landmark): ParallelBuild
// bit-identity across thread counts, scenario thread-count invariance
// under lognormal churn, deep/detached Clone, serving-mode replay
// equivalence for every reader count, and survival under 10% probe
// loss with retry — the same gauntlet the structured overlays pass in
// tests/core/serving_test.cc and tests/algos/parallel_build_test.cc.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algos/coord_nearest.h"
#include "core/churn.h"
#include "core/probe_policy.h"
#include "core/scenario.h"
#include "core/serving.h"
#include "matrix/generators.h"
#include "util/rng.h"

namespace np::algos {
namespace {

using core::ChurnSchedule;
using core::ChurnScheduleConfig;
using core::MatrixSpace;
using core::MeteredSpace;
using core::NearestPeerAlgorithm;
using core::QueryResult;
using core::RunScenario;
using core::RunServing;
using core::ScenarioConfig;
using core::ScenarioReport;
using core::ScenarioReportsIdentical;
using core::ServingConfig;
using core::ServingReport;

const std::vector<CoordScheme> kSchemes = {
    CoordScheme::kVivaldi, CoordScheme::kPic, CoordScheme::kLandmark};

/// Contract tests exercise determinism and lifecycle, not embedding
/// quality — a trimmed schedule keeps them fast.
CoordConfig FastConfig(CoordScheme scheme) {
  CoordConfig config;
  config.scheme = scheme;
  config.gossip_rounds = 48;
  config.sharpen_cycles = 2;
  config.sharpen_rounds = 2;
  config.num_landmarks = 8;
  config.landmark_iterations = 32;
  return config;
}

matrix::ClusteredWorld SmallClusteredWorld(std::uint64_t seed) {
  matrix::ClusteredConfig config;
  config.num_clusters = 4;
  config.nets_per_cluster = 15;
  config.peers_per_net = 2;
  config.delta = 0.6;
  util::Rng rng(seed);
  return matrix::GenerateClustered(config, rng);
}

ChurnSchedule LognormalSchedule() {
  ChurnScheduleConfig config;
  config.duration_s = 120.0;
  config.events_per_s = 1.0;
  config.mean_session_s = 60.0;
  config.session_model = core::SessionModel::kLogNormal;
  config.lognormal_sigma = 1.5;
  config.seed = 5;
  return ChurnSchedule::Poisson(config);
}

ScenarioConfig BaseScenario() {
  ScenarioConfig config;
  config.initial_overlay = 80;
  config.epochs = 3;
  config.queries_per_epoch = 60;
  config.num_threads = 1;
  config.seed = 77;
  return config;
}

std::vector<NodeId> FirstN(NodeId n) {
  std::vector<NodeId> v;
  for (NodeId i = 0; i < n; ++i) {
    v.push_back(i);
  }
  return v;
}

// --- ParallelBuild bit-identity ------------------------------------------

TEST(CoordContract, ParallelBuildMatchesSerialBitwise) {
  const auto world = SmallClusteredWorld(7);
  const MatrixSpace space(world.matrix);
  const NodeId overlay = 100;
  for (const CoordScheme scheme : kSchemes) {
    SCOPED_TRACE(CoordSchemeName(scheme));
    CoordNearest serial(FastConfig(scheme));
    const MeteredSpace serial_metered(space);
    {
      util::Rng rng(1234);
      serial.Build(serial_metered, FirstN(overlay), rng);
    }
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(threads);
      CoordNearest parallel(FastConfig(scheme));
      const MeteredSpace parallel_metered(space);
      {
        util::Rng rng(1234);
        parallel.ParallelBuild(parallel_metered, FirstN(overlay), rng,
                               threads);
      }
      EXPECT_EQ(serial_metered.probes(), parallel_metered.probes());
      ASSERT_EQ(serial.members(), parallel.members());
      EXPECT_EQ(serial.landmarks(), parallel.landmarks());
      for (const NodeId member : serial.members()) {
        // Bit-identical coordinates, not approximately equal ones.
        EXPECT_EQ(serial.CoordinateOf(member), parallel.CoordinateOf(member))
            << "member " << member;
      }
    }
  }
}

// --- Scenario thread-count invariance under churn ------------------------

TEST(CoordContract, ScenarioReportsThreadCountInvariantUnderChurn) {
  const auto world = SmallClusteredWorld(3);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = LognormalSchedule();
  for (const CoordScheme scheme : kSchemes) {
    SCOPED_TRACE(CoordSchemeName(scheme));
    ScenarioConfig config = BaseScenario();
    CoordNearest reference(FastConfig(scheme));
    const ScenarioReport serial =
        RunScenario(space, &world.layout, reference, schedule, config);
    for (const int threads : {2, 8}) {
      SCOPED_TRACE(threads);
      config.num_threads = threads;
      CoordNearest algo(FastConfig(scheme));
      const ScenarioReport report =
          RunScenario(space, &world.layout, algo, schedule, config);
      EXPECT_TRUE(ScenarioReportsIdentical(report, serial))
          << CoordSchemeName(scheme) << " diverged at " << threads
          << " threads";
    }
  }
}

// --- Clone: deep and detached --------------------------------------------

TEST(CoordContract, CloneIsDeepAndDetached) {
  const auto world = SmallClusteredWorld(11);
  const MatrixSpace space(world.matrix);
  for (const CoordScheme scheme : kSchemes) {
    SCOPED_TRACE(CoordSchemeName(scheme));
    const core::ProbePolicy policy(2);
    CoordNearest original(FastConfig(scheme));
    {
      util::Rng rng(55);
      original.Build(space, FirstN(90), rng);
    }
    original.AttachProbePolicy(&policy);
    const auto clone = original.Clone();
    ASSERT_EQ(clone->members(), original.members());
    // Detached: the clone probes through the default policy, not the
    // original's.
    EXPECT_EQ(&clone->probe_policy(), &core::ProbePolicy::Default());

    // Same rng, same target: the clone answers bit-identically.
    const MeteredSpace metered(space);
    const MeteredSpace clone_metered(space);
    util::Rng rng_a(91);
    util::Rng rng_b(91);
    const QueryResult from_original =
        original.FindNearest(NodeId{95}, metered, rng_a);
    const QueryResult from_clone =
        clone->FindNearest(NodeId{95}, clone_metered, rng_b);
    EXPECT_EQ(from_original.found, from_clone.found);
    EXPECT_EQ(from_original.found_latency_ms, from_clone.found_latency_ms);
    EXPECT_EQ(metered.probes(), clone_metered.probes());

    // Deep: churning the original leaves the clone's membership and
    // answers untouched.
    const std::vector<NodeId> clone_members = clone->members();
    {
      util::Rng rng(66);
      original.RemoveMember(original.members().front());
      original.AddMember(NodeId{95}, rng);
    }
    EXPECT_EQ(clone->members(), clone_members);
    util::Rng rng_d(91);
    const QueryResult clone_again =
        clone->FindNearest(NodeId{95}, metered, rng_d);
    EXPECT_EQ(clone_again.found, from_clone.found);
  }
}

// --- Serving-mode replay equivalence -------------------------------------

/// Serving at reader counts {1, 2, 8} must reproduce the serial
/// scenario replay bit for bit (the same helper contract as
/// tests/core/serving_test.cc).
void ExpectServingMatchesReplay(const core::LatencySpace& space,
                                const matrix::ClusterLayout* layout,
                                CoordScheme scheme,
                                const ChurnSchedule& schedule,
                                const ScenarioConfig& config) {
  CoordNearest replay_algo(FastConfig(scheme));
  const ScenarioReport replay =
      RunScenario(space, layout, replay_algo, schedule, config);
  for (const int readers : {1, 2, 8}) {
    ServingConfig serving;
    serving.scenario = config;
    serving.reader_threads = readers;
    CoordNearest algo(FastConfig(scheme));
    const ServingReport report =
        RunServing(space, layout, algo, schedule, serving);
    EXPECT_TRUE(ScenarioReportsIdentical(report.scenario, replay))
        << CoordSchemeName(scheme) << " with " << readers
        << " readers diverged from serial replay";
    EXPECT_EQ(report.snapshots_published,
              static_cast<std::size_t>(config.epochs));
  }
}

TEST(CoordContract, ServingMatchesSerialReplay) {
  const auto world = SmallClusteredWorld(3);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = LognormalSchedule();
  const ScenarioConfig config = BaseScenario();
  for (const CoordScheme scheme : kSchemes) {
    SCOPED_TRACE(CoordSchemeName(scheme));
    ExpectServingMatchesReplay(space, &world.layout, scheme, schedule,
                               config);
  }
}

// --- Probe loss with retry -----------------------------------------------

TEST(CoordContract, ServingMatchesSerialReplayUnderProbeLoss) {
  const auto world = SmallClusteredWorld(9);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = LognormalSchedule();
  ScenarioConfig config = BaseScenario();
  config.fault.loss_rate = 0.1;
  config.fault.max_attempts = 2;
  for (const CoordScheme scheme : kSchemes) {
    SCOPED_TRACE(CoordSchemeName(scheme));
    ExpectServingMatchesReplay(space, &world.layout, scheme, schedule,
                               config);
  }
}

TEST(CoordContract, SurvivesTenPercentProbeLossWithRetry) {
  const auto world = SmallClusteredWorld(13);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = LognormalSchedule();
  ScenarioConfig config = BaseScenario();
  config.fault.loss_rate = 0.1;
  config.fault.max_attempts = 2;
  for (const CoordScheme scheme : kSchemes) {
    SCOPED_TRACE(CoordSchemeName(scheme));
    CoordNearest algo(FastConfig(scheme));
    const ScenarioReport report =
        RunScenario(space, &world.layout, algo, schedule, config);
    ASSERT_EQ(report.epochs.size(), 3u);
    for (const auto& epoch : report.epochs) {
      // Lossy probes cost retries, never fabricated answers: queries
      // still resolve and exactness stays a valid rate.
      EXPECT_GE(epoch.p_exact_closest, 0.0);
      EXPECT_LE(epoch.p_exact_closest, 1.0);
      EXPECT_GT(epoch.messages_per_query, 0.0);
    }
  }
}

}  // namespace
}  // namespace np::algos
