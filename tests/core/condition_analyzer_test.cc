#include "core/condition_analyzer.h"

#include <gtest/gtest.h>

#include "core/latency_space.h"
#include "matrix/generators.h"

namespace np::core {
namespace {

// The analyzer quantifies the paper's §2.2 argument: the clustered
// space violates the growth-constrained and doubling assumptions while
// a low-dimensional Euclidean space satisfies both.

matrix::ClusteredWorld ClusteredSpaceWorld(int nets_per_cluster,
                                           std::uint64_t seed) {
  matrix::ClusteredConfig config;
  config.num_clusters = 4;
  config.nets_per_cluster = nets_per_cluster;
  config.peers_per_net = 2;
  config.delta = 0.2;
  util::Rng rng(seed);
  return matrix::GenerateClustered(config, rng);
}

TEST(GrowthAnalyzer, ClusteredSpaceViolatesGrowthConstraint) {
  const auto world = ClusteredSpaceWorld(40, 1);
  const MatrixSpace space(world.matrix);
  util::Rng rng(2);
  const auto report = AnalyzeGrowth(space, rng);
  // Every peer sees: 1 LAN mate within ~0.1 ms, then nothing until the
  // cluster at ~8-12 ms; |B(2l)|/|B(l)| therefore jumps by roughly the
  // cluster population at the gap scale.
  EXPECT_GT(report.median_ratio, 10.0);
  EXPECT_GT(report.max_ratio, 10.0);
  EXPECT_GT(report.nodes_sampled, 0);
}

TEST(GrowthAnalyzer, EuclideanSpaceIsGrowthConstrained) {
  util::Rng world_rng(3);
  matrix::EuclideanConfig config;
  config.dimensions = 2;
  const auto world = matrix::GenerateEuclidean(400, config, world_rng);
  const MatrixSpace space(world.matrix);
  util::Rng rng(4);
  const auto report = AnalyzeGrowth(space, rng);
  // In 2-D doubling the radius multiplies the population by ~4 in the
  // bulk; small-sample noise at tiny radii can exceed that, so compare
  // medians, generously.
  EXPECT_LT(report.median_ratio, 12.0);
}

TEST(GrowthAnalyzer, ViolationGrowsWithClusterSize) {
  const auto small = ClusteredSpaceWorld(10, 5);
  const auto large = ClusteredSpaceWorld(80, 5);
  const MatrixSpace small_space(small.matrix);
  const MatrixSpace large_space(large.matrix);
  util::Rng rng_a(6);
  util::Rng rng_b(6);
  const auto small_report = AnalyzeGrowth(small_space, rng_a);
  const auto large_report = AnalyzeGrowth(large_space, rng_b);
  EXPECT_GT(large_report.median_ratio, small_report.median_ratio);
}

TEST(DoublingAnalyzer, ClusteredSpaceNeedsManyHalfBalls) {
  const auto world = ClusteredSpaceWorld(40, 7);
  const MatrixSpace space(world.matrix);
  util::Rng rng(8);
  // With 4 clusters of 40 nets, ~24% of a peer's latencies are
  // intra-cluster; quantile 0.2 lands the ball radius at the
  // intra-cluster (~10 ms) scale, which is where the paper's argument
  // applies: the half-radius balls each cover a single end-network.
  const auto report = AnalyzeDoubling(space, 0.2, rng);
  // Covering a cluster-scale ball with half-radius balls requires on
  // the order of the number of end-networks (paper §2.2).
  EXPECT_GT(report.max_half_cover, 10);
}

TEST(DoublingAnalyzer, EuclideanSpaceHasSmallCover) {
  util::Rng world_rng(9);
  matrix::EuclideanConfig config;
  config.dimensions = 2;
  const auto world = matrix::GenerateEuclidean(400, config, world_rng);
  const MatrixSpace space(world.matrix);
  util::Rng rng(10);
  const auto report = AnalyzeDoubling(space, 0.5, rng);
  // 2-D doubling constant is ~7; greedy cover inflates it a little.
  EXPECT_LT(report.mean_half_cover, 25.0);
  EXPECT_GT(report.balls_sampled, 0);
}

TEST(Analyzers, InvalidConfigsThrow) {
  util::Rng world_rng(11);
  const auto world = matrix::GenerateEuclidean(20, {}, world_rng);
  const MatrixSpace space(world.matrix);
  util::Rng rng(12);
  EXPECT_THROW(AnalyzeDoubling(space, 0.0, rng), util::Error);
}

}  // namespace
}  // namespace np::core
