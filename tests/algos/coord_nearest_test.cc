// Behavior tests for the coordinate nearest-peer algorithms:
// embedding accuracy of the gossip and landmark substrates, end-to-end
// exactness against brute force on held-out targets, the query probe
// budget, PIC walk hop caps, billed join/leave lifecycle, landmark
// re-election, honest failure under total probe loss, seeded build
// reproducibility, config validation — and the paper's two coordinate
// claims: under clustering the coordinates cannot separate peers
// inside a cluster (§2.2) and PIC's greedy walk cannot reach the
// right end-network (§2.3), while a Euclidean control works.
#include "algos/coord_nearest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/experiment.h"
#include "core/probe_counter.h"
#include "matrix/embedded_space.h"
#include "matrix/faulty_space.h"
#include "matrix/generators.h"
#include "util/rng.h"
#include "util/stats.h"

namespace np::algos {
namespace {

using core::MeteredSpace;
using core::QueryResult;

const std::vector<CoordScheme> kSchemes = {
    CoordScheme::kVivaldi, CoordScheme::kPic, CoordScheme::kLandmark};

std::vector<NodeId> FirstN(NodeId n) {
  std::vector<NodeId> v;
  for (NodeId i = 0; i < n; ++i) {
    v.push_back(i);
  }
  return v;
}

matrix::EmbeddedSpace MakeWorld(NodeId n, std::uint64_t seed = 7) {
  matrix::EmbeddedSpaceConfig config;
  config.num_nodes = n;
  config.dimensions = 3;
  config.side_ms = 100.0;
  config.distortion = 0.1;
  config.seed = seed;
  return matrix::EmbeddedSpace(config);
}

CoordConfig SchemeConfig(CoordScheme scheme) {
  CoordConfig config;
  config.scheme = scheme;
  return config;
}

/// Lifecycle tests exercise joins/leaves/billing, not embedding
/// quality — a trimmed training schedule keeps them fast.
CoordConfig FastConfig(CoordScheme scheme) {
  CoordConfig config = SchemeConfig(scheme);
  config.gossip_rounds = 48;
  config.sharpen_cycles = 2;
  config.sharpen_rounds = 2;
  config.num_landmarks = 8;
  config.landmark_iterations = 32;
  return config;
}

/// A percentile of |predicted - actual| / actual over sampled member
/// pairs of a built CoordNearest.
double RelErrorPercentile(const CoordNearest& algo,
                          const core::LatencySpace& space, int pairs,
                          util::Rng& rng, double percentile) {
  const auto& members = algo.members();
  std::vector<double> errors;
  errors.reserve(static_cast<std::size_t>(pairs));
  for (int s = 0; s < pairs; ++s) {
    const std::size_t i = rng.Index(members.size());
    std::size_t j = rng.Index(members.size() - 1);
    if (j >= i) {
      ++j;
    }
    const double predicted = algo.PredictedLatency(members[i], members[j]);
    const double actual = space.Latency(members[i], members[j]);
    errors.push_back(std::abs(predicted - actual) / std::max(actual, 1e-6));
  }
  return util::Percentile(std::move(errors), percentile);
}

NodeId BruteForceNearest(const core::LatencySpace& space, NodeId target,
                         const std::vector<NodeId>& members) {
  NodeId best = kInvalidNode;
  double best_latency = std::numeric_limits<double>::infinity();
  for (const NodeId m : members) {
    const double latency = space.Latency(m, target);
    if (latency < best_latency || (latency == best_latency && m < best)) {
      best_latency = latency;
      best = m;
    }
  }
  return best;
}

TEST(CoordNearest, SchemeNamesAreStable) {
  EXPECT_EQ(CoordNearest(SchemeConfig(CoordScheme::kVivaldi)).name(),
            "coord-vivaldi");
  EXPECT_EQ(CoordNearest(SchemeConfig(CoordScheme::kPic)).name(),
            "coord-pic");
  EXPECT_EQ(CoordNearest(SchemeConfig(CoordScheme::kLandmark)).name(),
            "coord-landmark");
}

TEST(CoordNearest, GossipTrainingEmbedsAccurately) {
  const auto space = MakeWorld(500);
  CoordNearest algo(SchemeConfig(CoordScheme::kVivaldi));
  util::Rng rng(11);
  algo.Build(space, FirstN(500), rng);
  util::Rng eval_rng(12);
  EXPECT_LT(RelErrorPercentile(algo, space, 2000, eval_rng, 50.0), 0.25);
}

TEST(CoordNearest, LandmarkTrainingEmbedsAccurately) {
  const auto space = MakeWorld(500);
  CoordNearest algo(SchemeConfig(CoordScheme::kLandmark));
  util::Rng rng(13);
  algo.Build(space, FirstN(500), rng);
  util::Rng eval_rng(14);
  EXPECT_LT(RelErrorPercentile(algo, space, 2000, eval_rng, 50.0), 0.45);
}

/// End-to-end exactness on held-out targets: candidate lists come from
/// coordinates, real probes decide — so a well-trained embedding must
/// place the true nearest member inside the refined top-k most of the
/// time. PIC walks a sampled link graph instead of scanning a
/// directory, so its bar is lower.
TEST(CoordNearest, FindsTrueNearestOnHeldOutTargets) {
  const NodeId overlay = 1000;
  const NodeId total = 1100;
  const auto space = MakeWorld(total);
  const auto members = FirstN(overlay);
  for (const CoordScheme scheme : kSchemes) {
    SCOPED_TRACE(CoordSchemeName(scheme));
    CoordNearest algo(SchemeConfig(scheme));
    util::Rng rng(17);
    algo.Build(space, members, rng);
    const MeteredSpace metered(space);
    int exact = 0;
    for (NodeId target = overlay; target < total; ++target) {
      util::Rng qrng(util::Mix64(target));
      const QueryResult result = algo.FindNearest(target, metered, qrng);
      ASSERT_NE(result.found, kInvalidNode);
      if (result.found == BruteForceNearest(space, target, members)) {
        ++exact;
      }
    }
    const double p_exact = static_cast<double>(exact) / (total - overlay);
    EXPECT_GE(p_exact, scheme == CoordScheme::kPic ? 0.5 : 0.75);
  }
}

/// O(1) query traffic: placement probes plus top-k refinement probes,
/// never an O(n) scan of real probes.
TEST(CoordNearest, QueryProbeBudgetIsBounded) {
  const auto space = MakeWorld(300);
  for (const CoordScheme scheme : kSchemes) {
    SCOPED_TRACE(CoordSchemeName(scheme));
    const CoordConfig config = FastConfig(scheme);
    CoordNearest algo(config);
    util::Rng rng(19);
    algo.Build(space, FirstN(250), rng);
    const MeteredSpace metered(space);
    const std::uint64_t placement =
        scheme == CoordScheme::kLandmark
            ? static_cast<std::uint64_t>(config.num_landmarks)
            : static_cast<std::uint64_t>(CoordNearest::kPlacementSamples);
    const std::uint64_t budget =
        placement + static_cast<std::uint64_t>(CoordNearest::kRefineCandidates);
    for (NodeId target = 250; target < 290; ++target) {
      util::Rng qrng(util::Mix64(target));
      metered.ResetProbes();
      algo.FindNearest(target, metered, qrng);
      EXPECT_LE(metered.probes(), budget) << "target " << target;
    }
  }
}

TEST(CoordNearest, PicWalkHopsAreBounded) {
  const auto space = MakeWorld(300);
  const CoordConfig config = FastConfig(CoordScheme::kPic);
  CoordNearest algo(config);
  util::Rng rng(23);
  algo.Build(space, FirstN(250), rng);
  const MeteredSpace metered(space);
  const int cap = CoordNearest::kNumWalks * CoordNearest::kMaxWalkHops;
  for (NodeId target = 250; target < 290; ++target) {
    util::Rng qrng(util::Mix64(target));
    const QueryResult result = algo.FindNearest(target, metered, qrng);
    EXPECT_LE(result.hops, cap);
  }
}

/// A joiner bootstraps its coordinate from billed probes against the
/// Build-time space, and keep-fresh gossip charges on top.
TEST(CoordNearest, JoinerIsIntegratedAndBilled) {
  const auto space = MakeWorld(350);
  for (const CoordScheme scheme : kSchemes) {
    SCOPED_TRACE(CoordSchemeName(scheme));
    const CoordConfig config = FastConfig(scheme);
    CoordNearest algo(config);
    const MeteredSpace metered(space);
    util::Rng rng(29);
    algo.Build(metered, FirstN(300), rng);
    const std::uint64_t before = metered.probes();
    algo.AddMember(NodeId{320}, rng);
    EXPECT_TRUE(std::find(algo.members().begin(), algo.members().end(),
                          NodeId{320}) != algo.members().end());
    const auto coordinate = algo.CoordinateOf(NodeId{320});
    ASSERT_EQ(coordinate.size(),
              static_cast<std::size_t>(config.dimensions));
    for (const double c : coordinate) {
      EXPECT_TRUE(std::isfinite(c));
    }
    // At least the bootstrap samples plus the per-event gossip.
    EXPECT_GE(metered.probes() - before,
              static_cast<std::uint64_t>(CoordNearest::kGossipProbesPerEvent));
  }
}

TEST(CoordNearest, RemovedMemberIsNeverReturned) {
  const auto space = MakeWorld(350);
  for (const CoordScheme scheme : kSchemes) {
    SCOPED_TRACE(CoordSchemeName(scheme));
    CoordNearest algo(FastConfig(scheme));
    util::Rng rng(31);
    algo.Build(space, FirstN(300), rng);
    const NodeId departed = 7;
    algo.RemoveMember(departed);
    EXPECT_TRUE(std::find(algo.members().begin(), algo.members().end(),
                          departed) == algo.members().end());
    const MeteredSpace metered(space);
    for (NodeId target = 300; target < 340; ++target) {
      util::Rng qrng(util::Mix64(target));
      const QueryResult result = algo.FindNearest(target, metered, qrng);
      EXPECT_NE(result.found, departed);
    }
  }
}

/// A departing landmark takes the reference frame with it; the scheme
/// promotes a surviving member and keeps the landmark count.
TEST(CoordNearest, LandmarkDepartureTriggersReelection) {
  const auto space = MakeWorld(300);
  const CoordConfig config = FastConfig(CoordScheme::kLandmark);
  CoordNearest algo(config);
  util::Rng rng(37);
  algo.Build(space, FirstN(250), rng);
  ASSERT_EQ(algo.landmarks().size(),
            static_cast<std::size_t>(config.num_landmarks));
  const NodeId departed = algo.landmarks().front();
  algo.RemoveMember(departed);
  EXPECT_EQ(algo.landmarks().size(),
            static_cast<std::size_t>(config.num_landmarks));
  EXPECT_TRUE(std::find(algo.landmarks().begin(), algo.landmarks().end(),
                        departed) == algo.landmarks().end());
  for (const NodeId lm : algo.landmarks()) {
    EXPECT_TRUE(std::find(algo.members().begin(), algo.members().end(),
                          lm) != algo.members().end());
  }
}

/// When every placement probe is lost, the query fails honestly:
/// kInvalidNode, infinite latency, no refinement probes fabricated.
TEST(CoordNearest, UnplaceableTargetFailsHonestly) {
  const auto space = MakeWorld(300);
  for (const CoordScheme scheme : kSchemes) {
    SCOPED_TRACE(CoordSchemeName(scheme));
    const CoordConfig config = FastConfig(scheme);
    CoordNearest algo(config);
    util::Rng rng(41);
    algo.Build(space, FirstN(250), rng);
    const matrix::FaultySpace lossy(space, 0.999, 43);
    const MeteredSpace metered(lossy);
    util::Rng qrng(47);
    const QueryResult result = algo.FindNearest(NodeId{260}, metered, qrng);
    ASSERT_EQ(result.found, kInvalidNode);
    EXPECT_EQ(result.found_latency_ms, kInfiniteLatency);
    const std::uint64_t placement =
        scheme == CoordScheme::kLandmark
            ? static_cast<std::uint64_t>(config.num_landmarks)
            : static_cast<std::uint64_t>(CoordNearest::kPlacementSamples);
    EXPECT_LE(metered.probes(), placement);
  }
}

TEST(CoordNearest, SeededBuildIsReproducible) {
  const auto space = MakeWorld(300);
  for (const CoordScheme scheme : kSchemes) {
    SCOPED_TRACE(CoordSchemeName(scheme));
    CoordNearest first(FastConfig(scheme));
    CoordNearest second(FastConfig(scheme));
    {
      util::Rng rng(53);
      first.Build(space, FirstN(250), rng);
    }
    {
      util::Rng rng(53);
      second.Build(space, FirstN(250), rng);
    }
    ASSERT_EQ(first.members(), second.members());
    EXPECT_EQ(first.landmarks(), second.landmarks());
    for (const NodeId member : first.members()) {
      EXPECT_EQ(first.CoordinateOf(member), second.CoordinateOf(member));
    }
  }
}

/// Three members are fewer than every neighbor, link and landmark
/// budget; the query must still return the true nearest.
TEST(CoordNearest, TinyOverlayStillAnswers) {
  const auto space = MakeWorld(10);
  const NodeId target = 5;
  const auto members = FirstN(3);
  for (const CoordScheme scheme : kSchemes) {
    SCOPED_TRACE(CoordSchemeName(scheme));
    CoordNearest algo(SchemeConfig(scheme));
    util::Rng rng(41);
    algo.Build(space, members, rng);
    const MeteredSpace metered(space);
    util::Rng qrng(43);
    const QueryResult result = algo.FindNearest(target, metered, qrng);
    EXPECT_EQ(result.found, BruteForceNearest(space, target, members));
  }
}

TEST(CoordNearest, PredictedLatencyIsTheCoordinateDistance) {
  const auto space = MakeWorld(120);
  CoordNearest algo(FastConfig(CoordScheme::kVivaldi));
  util::Rng rng(59);
  algo.Build(space, FirstN(100), rng);
  for (NodeId a = 0; a < 10; ++a) {
    for (NodeId b = 10; b < 20; ++b) {
      const auto ca = algo.CoordinateOf(a);
      const auto cb = algo.CoordinateOf(b);
      double sq = 0.0;
      for (std::size_t d = 0; d < ca.size(); ++d) {
        sq += (ca[d] - cb[d]) * (ca[d] - cb[d]);
      }
      EXPECT_EQ(algo.PredictedLatency(a, b), std::sqrt(sq));
      EXPECT_EQ(algo.PredictedLatency(a, b), algo.PredictedLatency(b, a));
    }
  }
  EXPECT_THROW(algo.PredictedLatency(NodeId{0}, NodeId{110}), util::Error);
}

TEST(CoordNearest, InvalidConfigsThrow) {
  const auto expect_throw = [](CoordConfig config) {
    EXPECT_THROW(CoordNearest{config}, util::Error);
  };
  expect_throw({.dimensions = 0});
  expect_throw({.gossip_rounds = 0});
  expect_throw({.sharpen_rounds = 0});
}

// The suites below hold the paper's per-scheme coordinate claims:
// Vivaldi / VivaldiStreams for coord-vivaldi, Pic / PicNearest for
// coord-pic and Landmark for coord-landmark.

TEST(Vivaldi, EmbedsEuclideanSpaceAccurately) {
  util::Rng world_rng(1);
  matrix::EuclideanConfig econfig;
  econfig.dimensions = 2;
  const auto world = matrix::GenerateEuclidean(300, econfig, world_rng);
  const core::MatrixSpace space(world.matrix);
  CoordNearest algo(SchemeConfig(CoordScheme::kVivaldi));
  util::Rng rng(2);
  algo.Build(space, FirstN(300), rng);
  util::Rng eval_rng(3);
  // The exact value matters less than the contrast with the clustered
  // spaces below.
  EXPECT_LT(RelErrorPercentile(algo, space, 2000, eval_rng, 50.0), 0.25);
}

/// §2.2: coordinates cannot separate peers inside a cluster. Every
/// cluster peer collapses to nearly the same coordinate, so the
/// predicted latency between two peers of one end-network is
/// cluster-scale (ms) against an actual 0.1 ms — at any dimension
/// count.
TEST(Vivaldi, ClusteredSpaceEmbedsPoorlyAtLanScale) {
  matrix::ClusteredConfig cconfig;
  cconfig.num_clusters = 4;
  cconfig.nets_per_cluster = 40;
  util::Rng world_rng(4);
  const auto world = matrix::GenerateClustered(cconfig, world_rng);
  const core::MatrixSpace space(world.matrix);
  for (const int dims : {2, 5, 8}) {
    SCOPED_TRACE(dims);
    CoordNearest algo(CoordConfig{.dimensions = dims});
    util::Rng rng(5);
    algo.Build(space, FirstN(world.layout.peer_count()), rng);
    std::vector<double> lan_errors;
    for (NodeId p = 0; p < world.layout.peer_count(); ++p) {
      for (const NodeId mate : world.layout.NetMates(p)) {
        if (mate > p) {
          const double actual = space.Latency(p, mate);
          lan_errors.push_back(
              std::abs(algo.PredictedLatency(p, mate) - actual) / actual);
        }
      }
    }
    ASSERT_FALSE(lan_errors.empty());
    EXPECT_GT(util::Percentile(std::move(lan_errors), 50.0), 3.0);
  }
}

/// A held-out target is placed from a few real probes; on a Euclidean
/// space that placement lands in the target's true neighbourhood, so
/// the member the query returns is close to the true nearest one.
TEST(Vivaldi, PlaceNodePositionsNearTrueNeighborhood) {
  util::Rng world_rng(6);
  matrix::EuclideanConfig econfig;
  econfig.dimensions = 2;
  const auto world = matrix::GenerateEuclidean(300, econfig, world_rng);
  const core::MatrixSpace space(world.matrix);
  CoordNearest algo(CoordConfig{.dimensions = 2});
  const auto members = FirstN(280);
  util::Rng rng(7);
  algo.Build(space, members, rng);
  const MeteredSpace metered(space);
  int good = 0;
  int total = 0;
  for (NodeId target = 280; target < 300; ++target) {
    const QueryResult result = algo.FindNearest(target, metered, rng);
    ASSERT_NE(result.found, kInvalidNode);
    const double best =
        space.Latency(BruteForceNearest(space, target, members), target);
    ++total;
    if (result.found_latency_ms < 2.5 * best + 5.0) {
      ++good;
    }
  }
  EXPECT_GT(static_cast<double>(good) / total, 0.7);
  EXPECT_GT(metered.probes(), 0u);
}

TEST(Vivaldi, EmbeddingErrorDropsWithDimensionsOnEuclidean) {
  util::Rng world_rng(8);
  matrix::EuclideanConfig econfig;
  econfig.dimensions = 3;
  const auto world = matrix::GenerateEuclidean(250, econfig, world_rng);
  const core::MatrixSpace space(world.matrix);
  std::vector<double> errors;
  for (const int dims : {1, 3, 5}) {
    CoordNearest algo(CoordConfig{.dimensions = dims});
    util::Rng rng(9);
    algo.Build(space, FirstN(250), rng);
    util::Rng eval_rng(10);
    errors.push_back(RelErrorPercentile(algo, space, 800, eval_rng, 50.0));
  }
  // 1-D cannot represent a 3-D space; 3-D and 5-D can.
  EXPECT_GT(errors[0], errors[1] * 1.5);
  EXPECT_LT(errors[2], 0.3);
}

/// Beyond LAN mates: over pairs inside one cluster the tail error stays
/// large whatever the dimension count, because the cluster's peers sit
/// at nearly one coordinate while their true latencies spread.
TEST(Vivaldi, ClusteredSpaceStaysBadAtAnyDimension) {
  matrix::ClusteredConfig cconfig;
  cconfig.num_clusters = 3;
  cconfig.nets_per_cluster = 40;
  util::Rng world_rng(10);
  const auto world = matrix::GenerateClustered(cconfig, world_rng);
  const core::MatrixSpace space(world.matrix);
  const NodeId peers = world.layout.peer_count();
  for (const int dims : {2, 5, 8}) {
    SCOPED_TRACE(dims);
    CoordNearest algo(CoordConfig{.dimensions = dims});
    util::Rng rng(11);
    algo.Build(space, FirstN(peers), rng);
    util::Rng eval_rng(12);
    std::vector<double> errors;
    while (errors.size() < 800) {
      const NodeId a = static_cast<NodeId>(eval_rng.Index(peers));
      const NodeId b = static_cast<NodeId>(eval_rng.Index(peers));
      if (a == b || !world.layout.SameCluster(a, b)) {
        continue;
      }
      const double predicted = algo.PredictedLatency(a, b);
      const double actual = space.Latency(a, b);
      errors.push_back(std::abs(predicted - actual) / actual);
    }
    EXPECT_GT(util::Percentile(std::move(errors), 90.0), 0.3);
  }
}

/// The same (seed, members) pair reproduces every coordinate; another
/// seed moves them.
TEST(VivaldiStreams, TrainIsSeedReproducible) {
  const auto space = MakeWorld(300);
  const auto members = FirstN(250);
  CoordNearest first(SchemeConfig(CoordScheme::kVivaldi));
  CoordNearest second(SchemeConfig(CoordScheme::kVivaldi));
  CoordNearest reseeded(SchemeConfig(CoordScheme::kVivaldi));
  util::Rng rng_a(19);
  first.Build(space, members, rng_a);
  util::Rng rng_b(19);
  second.Build(space, members, rng_b);
  util::Rng rng_c(23);
  reseeded.Build(space, members, rng_c);
  bool any_different = false;
  for (const NodeId member : members) {
    EXPECT_EQ(first.CoordinateOf(member), second.CoordinateOf(member));
    if (first.CoordinateOf(member) != reseeded.CoordinateOf(member)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

/// Placing a query target draws only from the query rng: two queries
/// with equal seeds probe and answer identically.
TEST(VivaldiStreams, PlaceNodeIsSeedDeterministic) {
  const auto space = MakeWorld(320);
  CoordNearest algo(SchemeConfig(CoordScheme::kVivaldi));
  util::Rng rng(29);
  algo.Build(space, FirstN(300), rng);
  const MeteredSpace metered_a(space);
  const MeteredSpace metered_b(space);
  util::Rng place_a(31);
  util::Rng place_b(31);
  const QueryResult a = algo.FindNearest(NodeId{310}, metered_a, place_a);
  const QueryResult b = algo.FindNearest(NodeId{310}, metered_b, place_b);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.found_latency_ms, b.found_latency_ms);
  EXPECT_EQ(metered_a.probes(), metered_b.probes());
}

/// The control for the clustered test below: on a Euclidean space the
/// walk lands near the true nearest peer and clearly beats random
/// selection.
TEST(Pic, FindsNearOptimalOnEuclidean) {
  util::Rng world_rng(12);
  matrix::EuclideanConfig econfig;
  econfig.dimensions = 3;
  const auto world = matrix::GenerateEuclidean(400, econfig, world_rng);
  const core::MatrixSpace space(world.matrix);
  CoordNearest pic(SchemeConfig(CoordScheme::kPic));
  core::ExperimentConfig config;
  config.overlay_size = 360;
  config.num_queries = 150;
  util::Rng rng(13);
  const auto metrics = core::RunGenericExperiment(space, pic, config, rng);
  EXPECT_LT(metrics.mean_stretch, 4.0);
  EXPECT_GT(metrics.p_exact_closest, 0.05);
  core::RandomNearest random_algo;
  util::Rng random_rng(14);
  const auto random_metrics =
      core::RunGenericExperiment(space, random_algo, config, random_rng);
  EXPECT_LT(metrics.mean_stretch, 0.6 * random_metrics.mean_stretch);
}

/// §2.3's PIC prediction: the greedy walk cannot enter the right
/// end-network under clustering.
TEST(Pic, FailsToFindLanPeerUnderClustering) {
  matrix::ClusteredConfig cconfig;
  cconfig.num_clusters = 4;
  cconfig.nets_per_cluster = 50;
  util::Rng world_rng(14);
  const auto world = matrix::GenerateClustered(cconfig, world_rng);
  CoordNearest pic(SchemeConfig(CoordScheme::kPic));
  core::ExperimentConfig config;
  config.overlay_size = world.layout.peer_count() - 40;
  config.num_queries = 300;
  util::Rng rng(15);
  const auto metrics = core::RunClusteredExperiment(world, pic, config, rng);
  EXPECT_LT(metrics.p_exact_closest, 0.30);
}

/// A query's metered bill is far below the overlay size: placement
/// samples plus refinement only.
TEST(Pic, QueryAccountsProbes) {
  util::Rng world_rng(16);
  const auto world = matrix::GenerateEuclidean(200, {}, world_rng);
  const core::MatrixSpace space(world.matrix);
  CoordNearest pic(SchemeConfig(CoordScheme::kPic));
  util::Rng rng(17);
  pic.Build(space, FirstN(180), rng);
  const MeteredSpace metered(space);
  for (NodeId target = 180; target < 200; ++target) {
    metered.ResetProbes();
    const QueryResult result = pic.FindNearest(target, metered, rng);
    EXPECT_NE(result.found, kInvalidNode);
    EXPECT_LT(metered.probes(), 100u);
  }
}

/// coord-pic trains the gossip substrate; on an embedded world it
/// converges.
TEST(PicNearest, EmbeddingConvergesOnEmbeddedWorld) {
  const auto space = MakeWorld(400);
  CoordNearest pic(SchemeConfig(CoordScheme::kPic));
  util::Rng rng(11);
  pic.Build(space, FirstN(400), rng);
  util::Rng eval_rng(12);
  EXPECT_LT(RelErrorPercentile(pic, space, 2000, eval_rng, 50.0), 0.35);
}

TEST(PicNearest, SeededQuerySequenceIsReproducible) {
  const auto space = MakeWorld(350);
  CoordNearest first(SchemeConfig(CoordScheme::kPic));
  CoordNearest second(SchemeConfig(CoordScheme::kPic));
  {
    util::Rng rng(19);
    first.Build(space, FirstN(300), rng);
  }
  {
    util::Rng rng(19);
    second.Build(space, FirstN(300), rng);
  }
  const MeteredSpace metered_a(space);
  const MeteredSpace metered_b(space);
  util::Rng qrng_a(23);
  util::Rng qrng_b(23);
  for (NodeId target = 300; target < 340; ++target) {
    const QueryResult a = first.FindNearest(target, metered_a, qrng_a);
    const QueryResult b = second.FindNearest(target, metered_b, qrng_b);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.found_latency_ms, b.found_latency_ms);
    EXPECT_EQ(a.hops, b.hops);
    EXPECT_EQ(metered_a.probes(), metered_b.probes());
  }
}

/// At the default walk budget: hops stay under the walk cap and probes
/// under placement plus refinement.
TEST(PicNearest, WalkHopsAndProbesAreBounded) {
  const auto space = MakeWorld(350);
  const CoordConfig config = SchemeConfig(CoordScheme::kPic);
  CoordNearest pic(config);
  util::Rng rng(29);
  pic.Build(space, FirstN(300), rng);
  const MeteredSpace metered(space);
  const int hop_cap = CoordNearest::kNumWalks * CoordNearest::kMaxWalkHops;
  const std::uint64_t probe_cap =
      static_cast<std::uint64_t>(CoordNearest::kPlacementSamples) +
      static_cast<std::uint64_t>(CoordNearest::kRefineCandidates);
  for (NodeId target = 300; target < 340; ++target) {
    util::Rng qrng(util::Mix64(target));
    metered.ResetProbes();
    const QueryResult result = pic.FindNearest(target, metered, qrng);
    ASSERT_NE(result.found, kInvalidNode);
    EXPECT_LE(result.hops, hop_cap);
    EXPECT_LE(metered.probes(), probe_cap);
  }
}

/// Walk endpoints are refined with real probes, so the returned peer
/// beats a random member by a wide margin.
TEST(PicNearest, ReturnsMuchCloserThanRandomMember) {
  const auto space = MakeWorld(450);
  const auto members = FirstN(400);
  CoordNearest pic(SchemeConfig(CoordScheme::kPic));
  util::Rng rng(31);
  pic.Build(space, members, rng);
  const MeteredSpace metered(space);
  double found_sum = 0.0;
  double random_sum = 0.0;
  util::Rng baseline_rng(37);
  for (NodeId target = 400; target < 450; ++target) {
    util::Rng qrng(util::Mix64(target));
    const QueryResult result = pic.FindNearest(target, metered, qrng);
    ASSERT_NE(result.found, kInvalidNode);
    found_sum += result.found_latency_ms;
    random_sum +=
        space.Latency(members[baseline_rng.Index(members.size())], target);
  }
  EXPECT_LT(found_sum, 0.5 * random_sum);
}

TEST(Landmark, EmbedsEuclideanSpaceReasonably) {
  util::Rng world_rng(1);
  matrix::EuclideanConfig econfig;
  econfig.dimensions = 3;
  const auto world = matrix::GenerateEuclidean(300, econfig, world_rng);
  const core::MatrixSpace space(world.matrix);
  CoordNearest algo(SchemeConfig(CoordScheme::kLandmark));
  util::Rng rng(2);
  algo.Build(space, FirstN(300), rng);
  util::Rng eval_rng(3);
  // Landmark schemes are coarser than Vivaldi; the bar is usefulness,
  // not precision.
  EXPECT_LT(RelErrorPercentile(algo, space, 1500, eval_rng, 50.0), 0.45);
}

TEST(Landmark, LandmarksAreMembers) {
  util::Rng world_rng(4);
  const auto world = matrix::GenerateEuclidean(100, {}, world_rng);
  const core::MatrixSpace space(world.matrix);
  CoordConfig config = SchemeConfig(CoordScheme::kLandmark);
  config.dimensions = 4;
  config.num_landmarks = 10;
  CoordNearest algo(config);
  util::Rng rng(5);
  algo.Build(space, FirstN(100), rng);
  ASSERT_EQ(algo.landmarks().size(), 10u);
  for (const NodeId lm : algo.landmarks()) {
    EXPECT_GE(lm, 0);
    EXPECT_LT(lm, 100);
  }
}

/// Fraction of the first `count` members whose coordinate-nearest
/// member is their true nearest member.
double CoordinateNearestHitRate(const CoordNearest& algo,
                                const core::LatencySpace& space, NodeId count) {
  const auto& members = algo.members();
  int hits = 0;
  for (NodeId p = 0; p < count; ++p) {
    NodeId best = kInvalidNode;
    double best_predicted = std::numeric_limits<double>::infinity();
    for (const NodeId q : members) {
      if (q == p) {
        continue;
      }
      const double predicted = algo.PredictedLatency(p, q);
      if (predicted < best_predicted) {
        best_predicted = predicted;
        best = q;
      }
    }
    LatencyMs truth_latency = 0.0;
    if (best == space.ClosestOf(p, members, &truth_latency)) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / count;
}

/// §2.2 / §6 for the landmark scheme: cluster peers have identical
/// latencies to every landmark, so ranking members by predicted
/// distance picks the true nearest peer little better than chance,
/// while on a Euclidean space of the same size it mostly does.
/// Landmark RTTs are *measured*, and real measurements carry an
/// absolute noise floor; without it, sub-millisecond leg differences
/// would leak into the coordinates and discriminate peers no real
/// deployment could tell apart (the paper's premise).
TEST(Landmark, CannotDiscriminateClusterPeers) {
  matrix::ClusteredConfig cconfig;
  cconfig.num_clusters = 4;
  cconfig.nets_per_cluster = 40;
  util::Rng world_rng(6);
  const auto clustered = matrix::GenerateClustered(cconfig, world_rng);
  const NodeId peers = clustered.layout.peer_count();
  const core::MatrixSpace clustered_space(clustered.matrix);
  const core::NoisySpace clustered_noisy(clustered_space, 0.02, 1234, 0.5);
  CoordNearest clustered_algo(SchemeConfig(CoordScheme::kLandmark));
  util::Rng rng(7);
  clustered_algo.Build(clustered_noisy, FirstN(peers), rng);
  const double clustered_hits =
      CoordinateNearestHitRate(clustered_algo, clustered_space, 100);
  // Chance is ~1/80 within a cluster; generous headroom, far below
  // usable.
  EXPECT_LT(clustered_hits, 0.2);

  util::Rng euclid_world_rng(8);
  matrix::EuclideanConfig econfig;
  econfig.dimensions = 3;
  const auto euclid =
      matrix::GenerateEuclidean(peers, econfig, euclid_world_rng);
  const core::MatrixSpace euclid_space(euclid.matrix);
  const core::NoisySpace euclid_noisy(euclid_space, 0.02, 5678, 0.5);
  CoordNearest euclid_algo(SchemeConfig(CoordScheme::kLandmark));
  util::Rng euclid_rng(9);
  euclid_algo.Build(euclid_noisy, FirstN(peers), euclid_rng);
  const double euclid_hits =
      CoordinateNearestHitRate(euclid_algo, euclid_space, 100);
  EXPECT_GT(euclid_hits, clustered_hits * 2.0);
}

/// A landmark frame needs dims + 1 landmarks.
TEST(Landmark, InvalidConfigThrows) {
  CoordConfig config = SchemeConfig(CoordScheme::kLandmark);
  config.dimensions = 5;
  config.num_landmarks = 3;
  EXPECT_THROW(CoordNearest{config}, util::Error);
}

}  // namespace
}  // namespace np::algos
