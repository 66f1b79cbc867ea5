#include "core/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "algos/tiers.h"
#include "core/nearest_algorithm.h"
#include "matrix/generators.h"
#include "meridian/meridian.h"

namespace np::core {
namespace {

matrix::ClusteredWorld SmallWorld(std::uint64_t seed) {
  matrix::ClusteredConfig config;
  config.num_clusters = 4;
  config.nets_per_cluster = 8;
  config.peers_per_net = 2;
  util::Rng rng(seed);
  return matrix::GenerateClustered(config, rng);
}

TEST(SplitOverlayFn, PartitionsAllNodes) {
  util::Rng rng(1);
  const auto split = SplitOverlay(100, 80, rng);
  EXPECT_EQ(split.members.size(), 80u);
  EXPECT_EQ(split.targets.size(), 20u);
  std::set<NodeId> all(split.members.begin(), split.members.end());
  all.insert(split.targets.begin(), split.targets.end());
  EXPECT_EQ(all.size(), 100u);
}

TEST(SplitOverlayFn, RequiresRoomForTargets) {
  util::Rng rng(2);
  EXPECT_THROW(SplitOverlay(10, 10, rng), util::Error);
  EXPECT_THROW(SplitOverlay(10, 0, rng), util::Error);
}

TEST(TrueClosest, MatchesBruteForce) {
  util::Rng rng(3);
  const auto world = matrix::GenerateEuclidean(50, {}, rng);
  const MatrixSpace space(world.matrix);
  std::vector<NodeId> members;
  for (NodeId i = 0; i < 40; ++i) {
    members.push_back(i);
  }
  for (NodeId target = 40; target < 50; ++target) {
    const NodeId truth = TrueClosestMember(space, members, target);
    for (NodeId member : members) {
      EXPECT_LE(space.Latency(truth, target), space.Latency(member, target));
    }
  }
}

TEST(OracleAlgorithm, AlwaysFindsExactClosest) {
  const auto world = SmallWorld(4);
  OracleNearest oracle;
  ExperimentConfig config;
  config.overlay_size = world.layout.peer_count() - 8;
  config.num_queries = 200;
  util::Rng rng(5);
  const auto metrics = RunClusteredExperiment(world, oracle, config, rng);
  EXPECT_DOUBLE_EQ(metrics.p_exact_closest, 1.0);
  EXPECT_DOUBLE_EQ(metrics.p_correct_cluster, 1.0);
  // Oracle probes every member exactly once per query.
  EXPECT_DOUBLE_EQ(metrics.mean_probes,
                   static_cast<double>(config.overlay_size));
}

TEST(OracleAlgorithm, FindsLanMateWhenPresent) {
  // For every target whose LAN mate is in the overlay, the oracle must
  // return exactly that mate (0.1 ms beats every inter-network
  // latency by construction).
  const auto world = SmallWorld(6);
  const MatrixSpace space(world.matrix);
  util::Rng split_rng(7);
  const auto split =
      SplitOverlay(space.size(), world.layout.peer_count() - 4, split_rng);
  OracleNearest oracle;
  util::Rng build_rng(8);
  oracle.Build(space, split.members, build_rng);
  const MeteredSpace metered(space);
  util::Rng query_rng(9);
  const std::set<NodeId> member_set(split.members.begin(),
                                    split.members.end());
  int targets_with_mate = 0;
  for (NodeId target : split.targets) {
    const auto mates = world.layout.NetMates(target);
    ASSERT_EQ(mates.size(), 1u);
    if (member_set.count(mates[0]) == 0) {
      continue;  // mate also held out; nothing to assert
    }
    ++targets_with_mate;
    const auto result = oracle.FindNearest(target, metered, query_rng);
    EXPECT_EQ(result.found, mates[0]);
    EXPECT_DOUBLE_EQ(result.found_latency_ms, 0.1);
  }
  EXPECT_GT(targets_with_mate, 0);
}

TEST(RandomAlgorithm, RarelyFindsClosestUnderClustering) {
  const auto world = SmallWorld(8);
  RandomNearest random_algo;
  ExperimentConfig config;
  config.overlay_size = world.layout.peer_count() - 8;
  config.num_queries = 400;
  util::Rng rng(9);
  const auto metrics = RunClusteredExperiment(world, random_algo, config, rng);
  EXPECT_LT(metrics.p_exact_closest, 0.15);
  EXPECT_DOUBLE_EQ(metrics.mean_probes, 1.0);
  // Random picks the correct cluster roughly 1/num_clusters of the
  // time.
  EXPECT_GT(metrics.p_correct_cluster, 0.05);
  EXPECT_LT(metrics.p_correct_cluster, 0.60);
}

TEST(ClusteredExperimentRun, WrongAnswersCarryHubLatency) {
  const auto world = SmallWorld(10);
  RandomNearest random_algo;
  ExperimentConfig config;
  config.overlay_size = world.layout.peer_count() - 8;
  config.num_queries = 200;
  util::Rng rng(11);
  const auto metrics = RunClusteredExperiment(world, random_algo, config, rng);
  // Hub legs are drawn from [4 * 0.8, 6 * 1.2] ms.
  EXPECT_GE(metrics.median_wrong_hub_latency_ms, 3.2);
  EXPECT_LE(metrics.median_wrong_hub_latency_ms, 7.2);
}

TEST(ClusteredExperimentRun, DeterministicGivenSeed) {
  const auto world = SmallWorld(12);
  ExperimentConfig config;
  config.overlay_size = world.layout.peer_count() - 8;
  config.num_queries = 100;
  RandomNearest algo_a;
  RandomNearest algo_b;
  util::Rng rng_a(13);
  util::Rng rng_b(13);
  const auto a = RunClusteredExperiment(world, algo_a, config, rng_a);
  const auto b = RunClusteredExperiment(world, algo_b, config, rng_b);
  EXPECT_DOUBLE_EQ(a.p_exact_closest, b.p_exact_closest);
  EXPECT_DOUBLE_EQ(a.p_correct_cluster, b.p_correct_cluster);
  EXPECT_DOUBLE_EQ(a.mean_found_latency_ms, b.mean_found_latency_ms);
}

TEST(ClusteredExperimentRun, ThreadCountInvariant) {
  // The tentpole determinism guarantee: the parallel query loop
  // produces bit-identical metrics for every thread count, with and
  // without measurement noise (per-query noise streams).
  const auto world = SmallWorld(20);
  for (const double noise : {0.0, 0.1}) {
    ClusteredMetrics baseline;
    for (const int threads : {1, 2, 8}) {
      meridian::MeridianOverlay algo{meridian::MeridianConfig{}};
      ExperimentConfig config;
      config.overlay_size = world.layout.peer_count() - 8;
      config.num_queries = 150;
      config.measurement_noise_frac = noise;
      config.num_threads = threads;
      util::Rng rng(21);
      const auto metrics = RunClusteredExperiment(world, algo, config, rng);
      if (threads == 1) {
        baseline = metrics;
        continue;
      }
      EXPECT_EQ(metrics.p_exact_closest, baseline.p_exact_closest);
      EXPECT_EQ(metrics.p_correct_cluster, baseline.p_correct_cluster);
      EXPECT_EQ(metrics.p_same_net, baseline.p_same_net);
      EXPECT_EQ(metrics.mean_found_latency_ms,
                baseline.mean_found_latency_ms);
      EXPECT_EQ(metrics.median_wrong_hub_latency_ms,
                baseline.median_wrong_hub_latency_ms);
      EXPECT_EQ(metrics.mean_probes, baseline.mean_probes);
      EXPECT_EQ(metrics.mean_hops, baseline.mean_hops);
    }
  }
}

TEST(GenericExperimentRun, ThreadCountInvariant) {
  util::Rng world_rng(22);
  const auto world = matrix::GenerateEuclidean(150, {}, world_rng);
  const MatrixSpace space(world.matrix);
  GenericMetrics baseline;
  for (const int threads : {1, 2, 8}) {
    meridian::MeridianOverlay algo{meridian::MeridianConfig{}};
    ExperimentConfig config;
    config.overlay_size = 120;
    config.num_queries = 150;
    config.num_threads = threads;
    util::Rng rng(23);
    const auto metrics = RunGenericExperiment(space, algo, config, rng);
    if (threads == 1) {
      baseline = metrics;
      continue;
    }
    EXPECT_EQ(metrics.p_exact_closest, baseline.p_exact_closest);
    EXPECT_EQ(metrics.mean_stretch, baseline.mean_stretch);
    EXPECT_EQ(metrics.mean_abs_error_ms, baseline.mean_abs_error_ms);
    EXPECT_EQ(metrics.mean_probes, baseline.mean_probes);
    EXPECT_EQ(metrics.mean_hops, baseline.mean_hops);
  }
}

TEST(GenericExperimentRun, OracleHasUnitStretch) {
  util::Rng world_rng(14);
  const auto world = matrix::GenerateEuclidean(120, {}, world_rng);
  const MatrixSpace space(world.matrix);
  OracleNearest oracle;
  ExperimentConfig config;
  config.overlay_size = 100;
  config.num_queries = 100;
  util::Rng rng(15);
  const auto metrics = RunGenericExperiment(space, oracle, config, rng);
  EXPECT_DOUBLE_EQ(metrics.p_exact_closest, 1.0);
  EXPECT_NEAR(metrics.mean_stretch, 1.0, 1e-9);
  EXPECT_NEAR(metrics.mean_abs_error_ms, 0.0, 1e-9);
}

TEST(GenericExperimentRun, RandomHasStretchAboveOne) {
  util::Rng world_rng(16);
  const auto world = matrix::GenerateEuclidean(120, {}, world_rng);
  const MatrixSpace space(world.matrix);
  RandomNearest algo;
  ExperimentConfig config;
  config.overlay_size = 100;
  config.num_queries = 200;
  util::Rng rng(17);
  const auto metrics = RunGenericExperiment(space, algo, config, rng);
  EXPECT_LT(metrics.p_exact_closest, 0.2);
  EXPECT_GT(metrics.mean_stretch, 1.5);
}

// --- Golden pins ------------------------------------------------------------
// Fixed values, not self-consistency: every metric of both runners on a
// grid of thread counts x probe noise, recorded with %.17g. A change to
// the split, the build-noise seed, the per-query streams, the scoring
// or the reduction moves at least one of them.

/// Query-order-dependent scheme: each query probes a window of members
/// at a cursor that every query advances, so its answers depend on the
/// order queries run in. It keeps the base's ParallelQuerySafe() ==
/// false, which is what pins the runners' one-thread clamp.
class CursorNearest final : public NearestPeerAlgorithm {
 public:
  std::string name() const override { return "cursor"; }
  void Build(const LatencySpace& /*space*/, std::vector<NodeId> members,
             util::Rng& /*rng*/) override {
    members_ = std::move(members);
  }
  QueryResult FindNearest(NodeId target, const MeteredSpace& metered,
                          util::Rng& rng) override {
    cursor_ += rng.Index(7);
    QueryResult result;
    for (int i = 0; i < 6; ++i) {
      const NodeId m = members_[cursor_++ % members_.size()];
      const LatencyMs l = metered.Latency(m, target);
      if (result.found == kInvalidNode || l < result.found_latency_ms) {
        result.found = m;
        result.found_latency_ms = l;
      }
      ++result.hops;
    }
    return result;
  }
  const std::vector<NodeId>& members() const override { return members_; }

 private:
  std::vector<NodeId> members_;
  std::size_t cursor_ = 0;
};

/// {p_exact_closest, p_correct_cluster, p_same_net,
///  median_wrong_hub_latency_ms, mean_found_latency_ms, mean_probes,
///  mean_hops} at num_queries = 150.
using ClusteredPin = std::array<double, 7>;

void ExpectPinned(const ClusteredMetrics& m, const ClusteredPin& want) {
  EXPECT_EQ(m.num_queries, 150);
  EXPECT_EQ(m.p_exact_closest, want[0]);
  EXPECT_EQ(m.p_correct_cluster, want[1]);
  EXPECT_EQ(m.p_same_net, want[2]);
  EXPECT_EQ(m.median_wrong_hub_latency_ms, want[3]);
  EXPECT_EQ(m.mean_found_latency_ms, want[4]);
  EXPECT_EQ(m.mean_probes, want[5]);
  EXPECT_EQ(m.mean_hops, want[6]);
}

TEST(ExperimentGolden, ClusteredMetricsArePinned) {
  matrix::ClusteredConfig wconfig;
  wconfig.num_clusters = 4;
  wconfig.nets_per_cluster = 8;
  wconfig.peers_per_net = 2;
  util::Rng world_rng(30);
  const auto world = matrix::GenerateClustered(wconfig, world_rng);
  struct Pin {
    bool meridian;
    double noise;
    ClusteredPin want;
  };
  const Pin pins[] = {
      {true, 0.0, {1, 1, 0.78000000000000003, 0, 2.0814014331807598,
                   22.086666666666666, 0.97999999999999998}},
      {true, 0.05, {0.97999999999999998, 1, 0.78000000000000003,
                    5.1544666627308953, 2.1064738828866401,
                    23.566666666666666, 0.97999999999999998}},
      {false, 0.0, {0.15333333333333332, 0.8666666666666667,
                    0.10000000000000001, 4.1840392159493991,
                    19.95834868799146, 6, 6}},
      {false, 0.05, {0.15333333333333332, 0.8666666666666667,
                     0.10000000000000001, 4.2083105112857524,
                     20.014133120741466, 6, 6}},
  };
  for (const Pin& pin : pins) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(pin.meridian ? "meridian" : "cursor") +
                   " noise=" + std::to_string(pin.noise) +
                   " threads=" + std::to_string(threads));
      std::unique_ptr<NearestPeerAlgorithm> algo;
      if (pin.meridian) {
        algo = std::make_unique<meridian::MeridianOverlay>(
            meridian::MeridianConfig{});
      } else {
        algo = std::make_unique<CursorNearest>();
      }
      ExperimentConfig config;
      config.overlay_size = world.layout.peer_count() - 8;
      config.num_queries = 150;
      config.measurement_noise_frac = pin.noise;
      config.num_threads = threads;
      util::Rng rng(31);
      ExpectPinned(RunClusteredExperiment(world, *algo, config, rng),
                   pin.want);
    }
  }
}

TEST(ExperimentGolden, GenericMetricsArePinned) {
  util::Rng world_rng(32);
  const auto world = matrix::GenerateEuclidean(150, {}, world_rng);
  const MatrixSpace space(world.matrix);
  struct Pin {
    double noise;
    /// {p_exact_closest, mean_stretch, mean_abs_error_ms, mean_probes,
    ///  mean_hops} at num_queries = 150.
    std::array<double, 5> want;
  };
  const Pin pins[] = {
      {0.0, {0.69333333333333336, 1.2023109508630376, 2.1521172140342126,
             24.34, 2}},
      {0.05, {0.56000000000000005, 1.3703319313212918, 3.4347990504602741,
              25.166666666666668, 2}},
  };
  for (const Pin& pin : pins) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("noise=" + std::to_string(pin.noise) +
                   " threads=" + std::to_string(threads));
      // A 10 ms base radius gives the 120-member overlay a real
      // hierarchy (the 2 ms default leaves it flat).
      algos::TiersConfig tconfig;
      tconfig.base_radius_ms = 10.0;
      algos::TiersNearest algo{tconfig};
      ExperimentConfig config;
      config.overlay_size = 120;
      config.num_queries = 150;
      config.measurement_noise_frac = pin.noise;
      config.num_threads = threads;
      util::Rng rng(33);
      const GenericMetrics m = RunGenericExperiment(space, algo, config, rng);
      EXPECT_EQ(m.num_queries, 150);
      EXPECT_EQ(m.p_exact_closest, pin.want[0]);
      EXPECT_EQ(m.mean_stretch, pin.want[1]);
      EXPECT_EQ(m.mean_abs_error_ms, pin.want[2]);
      EXPECT_EQ(m.mean_probes, pin.want[3]);
      EXPECT_EQ(m.mean_hops, pin.want[4]);
    }
  }
}

}  // namespace
}  // namespace np::core
