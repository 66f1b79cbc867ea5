// Parameterized property sweeps: invariants that must hold for every
// seed / size, across module boundaries.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "dht/chord.h"
#include "matrix/generators.h"
#include "meridian/meridian.h"

namespace np {
namespace {

// ---------------------------------------------------------------------------
// Clustered-experiment invariants over seeds.

class ClusteredInvariantTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusteredInvariantTest, RunnerAndMeridianInvariants) {
  const std::uint64_t seed = GetParam();
  matrix::ClusteredConfig config;
  config.num_clusters = 5;
  config.nets_per_cluster = 30;
  util::Rng world_rng(seed);
  const auto world = matrix::GenerateClustered(config, world_rng);

  meridian::MeridianOverlay algo{meridian::MeridianConfig{}};
  core::ExperimentConfig run;
  run.overlay_size = world.layout.peer_count() - 40;
  run.num_queries = 200;
  util::Rng rng(seed + 1);
  const auto m = core::RunClusteredExperiment(world, algo, run, rng);

  // Probabilities are probabilities.
  for (const double p :
       {m.p_exact_closest, m.p_correct_cluster, m.p_same_net}) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // Finding the exact closest implies landing in the right cluster
  // (the closest member of a clustered target is intra-cluster by
  // construction), so the cluster rate dominates.
  EXPECT_GE(m.p_correct_cluster + 1e-9, m.p_exact_closest);
  // Meridian probes a small fraction of the overlay, never more than
  // all of it.
  EXPECT_GT(m.mean_probes, 0.0);
  EXPECT_LT(m.mean_probes, static_cast<double>(run.overlay_size));
  // Found peers are real peers at real latencies.
  EXPECT_GT(m.mean_found_latency_ms, 0.0);
  // Hub latencies of wrong answers live in the generator's band.
  if (m.p_exact_closest < 1.0) {
    EXPECT_GT(m.median_wrong_hub_latency_ms, 0.0);
    EXPECT_LT(m.median_wrong_hub_latency_ms, 10.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteredInvariantTest,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// ---------------------------------------------------------------------------
// Oracle is exact on every world shape.

class OracleSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OracleSweepTest, OracleAlwaysExact) {
  const auto [clusters, nets] = GetParam();
  matrix::ClusteredConfig config;
  config.num_clusters = clusters;
  config.nets_per_cluster = nets;
  util::Rng world_rng(static_cast<std::uint64_t>(clusters * 100 + nets));
  const auto world = matrix::GenerateClustered(config, world_rng);
  core::OracleNearest oracle;
  core::ExperimentConfig run;
  run.overlay_size = world.layout.peer_count() - 10;
  run.num_queries = 50;
  util::Rng rng(3);
  const auto m = core::RunClusteredExperiment(world, oracle, run, rng);
  EXPECT_DOUBLE_EQ(m.p_exact_closest, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OracleSweepTest,
    ::testing::Values(std::make_tuple(2, 10), std::make_tuple(5, 20),
                      std::make_tuple(10, 8), std::make_tuple(3, 50)));

// ---------------------------------------------------------------------------
// Chord lookup correctness across ring sizes and salts.

class ChordSweepTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ChordSweepTest, LookupAlwaysFindsTheOwner) {
  const auto [n, salt] = GetParam();
  std::vector<NodeId> nodes;
  for (NodeId i = 0; i < n; ++i) {
    nodes.push_back(i * 7 + 3);
  }
  const dht::ChordRing ring(nodes, dht::ChordConfig{salt});
  util::Rng rng(salt + 1);
  for (int q = 0; q < 100; ++q) {
    const dht::ChordKey key = rng();
    const NodeId start = nodes[rng.Index(nodes.size())];
    const auto result = ring.Lookup(key, start);
    EXPECT_EQ(result.owner, ring.OwnerOf(key));
    EXPECT_GE(result.hops, 0);
    EXPECT_LE(result.hops, 2 * 64 + n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RingsAndSalts, ChordSweepTest,
    ::testing::Values(std::make_tuple(1, 1ULL), std::make_tuple(2, 2ULL),
                      std::make_tuple(17, 3ULL),
                      std::make_tuple(100, 4ULL),
                      std::make_tuple(1000, 5ULL)));

// ---------------------------------------------------------------------------
// Metric repair is idempotent and order-preserving across generators.

class MetricRepairSweepTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricRepairSweepTest, RepairIsIdempotent) {
  util::Rng rng(GetParam());
  auto m = matrix::GenerateKingLike(40, rng, /*metric_repair=*/false);
  m.MetricRepair();
  const auto once = m;
  m.MetricRepair();
  for (NodeId i = 0; i < 40; ++i) {
    for (NodeId j = 0; j < 40; ++j) {
      EXPECT_DOUBLE_EQ(m.At(i, j), once.At(i, j));
    }
  }
  EXPECT_NEAR(m.MaxTriangleViolation(), 0.0, 1e-9);
}

TEST_P(MetricRepairSweepTest, RepairNeverIncreasesEntries) {
  util::Rng rng(GetParam() + 1000);
  const auto raw = matrix::GenerateKingLike(30, rng, /*metric_repair=*/false);
  auto repaired = raw;
  repaired.MetricRepair();
  for (NodeId i = 0; i < 30; ++i) {
    for (NodeId j = 0; j < 30; ++j) {
      EXPECT_LE(repaired.At(i, j), raw.At(i, j) + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricRepairSweepTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace np
