// Extra ablation: quantifying §2.2's three violated assumptions as a
// function of cluster size.
//
//  * Growth constraint: worst |B(2l)|/|B(l)| ratio — explodes with the
//    number of end-networks per cluster.
//  * Doubling: greedy half-radius cover of a cluster-scale ball —
//    approaches the number of end-networks.
//  * Low dimensionality: the relative error of each node's
//    nearest-neighbour distance as predicted by a 5-D coord-vivaldi
//    overlay — many times the true distance under clustering at any
//    cluster size, versus a few percent on a Euclidean control.
// Every table cell is a derived key <world>_<column>, CI-gated against
// bench/baselines/BENCH_ablation_condition_quick.json.
#include <cmath>

#include "algos/coord_nearest.h"
#include "bench/common.h"
#include "bench/reporter.h"
#include "core/condition_analyzer.h"
#include "matrix/generators.h"
#include "util/stats.h"

#include "util/contract.h"

using np::NodeId;

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "ablation_condition",
      "Not a paper figure (quantifies §2.2): growth ratio and doubling "
      "cover scale with end-networks/cluster; embedding error stays "
      "high at any cluster size.");

  np::bench::Reporter reporter("ablation_condition");
  np::util::Table table({"world", "growth_ratio_med", "doubling_cover_max",
                         "vivaldi5d_nn_err_p50"});

  // Low-dimensionality check at the scale that matters for nearest-peer
  // selection: the relative error of each node's *nearest-neighbor*
  // distance. Coordinates place cluster peers on top of each other, so
  // the LAN-scale distances are off by orders of magnitude.
  const auto nn_embed_error = [&](const np::core::LatencySpace& space) {
    std::vector<NodeId> members;
    for (NodeId i = 0; i < space.size(); ++i) {
      members.push_back(i);
    }
    np::algos::CoordNearest vivaldi(np::algos::CoordConfig{.dimensions = 5});
    np::util::Rng rng(77);
    vivaldi.Build(space, members, rng);
    std::vector<double> errors;
    np::util::Rng eval_rng(78);
    for (int s = 0; s < 300; ++s) {
      const NodeId node = static_cast<NodeId>(
          eval_rng.Index(static_cast<std::size_t>(space.size())));
      double nearest_d = 0.0;
      const NodeId nearest = space.ClosestOf(node, members, &nearest_d);
      const double predicted = vivaldi.PredictedLatency(node, nearest);
      errors.push_back(std::abs(predicted - nearest_d) /
                       std::max(nearest_d, 1e-6));
    }
    return np::util::Percentile(std::move(errors), 50.0);
  };

  const auto analyze = [&](const std::string& world,
                           const np::core::LatencySpace& space,
                           double radius_quantile) {
    np::util::Rng growth_rng(1);
    const auto growth = np::core::AnalyzeGrowth(space, growth_rng);
    np::util::Rng doubling_rng(2);
    const auto doubling =
        np::core::AnalyzeDoubling(space, radius_quantile, doubling_rng);
    const double nn_err = nn_embed_error(space);
    reporter.Derive(world + "_growth_ratio_med", growth.median_ratio);
    reporter.Derive(world + "_doubling_cover_max",
                    static_cast<double>(doubling.max_half_cover));
    reporter.Derive(world + "_vivaldi5d_nn_err_p50", nn_err);
    table.AddRow({world, np::util::FormatDouble(growth.median_ratio, 1),
                  std::to_string(doubling.max_half_cover),
                  np::util::FormatDouble(nn_err, 3)});
  };

  for (const int nets : {10, 25, 50, 100}) {
    np::matrix::ClusteredConfig config;
    config.nets_per_cluster = nets;
    config.num_clusters = 4;
    np::util::Rng world_rng(static_cast<std::uint64_t>(nets));
    const auto world = np::matrix::GenerateClustered(config, world_rng);
    analyze("clustered_" + std::to_string(nets) + "nets",
            np::core::MatrixSpace(world.matrix), 0.15);
  }
  {
    np::util::Rng world_rng(99);
    np::matrix::EuclideanConfig config;
    config.dimensions = 3;
    const auto world = np::matrix::GenerateEuclidean(800, config, world_rng);
    analyze("euclidean_control", np::core::MatrixSpace(world.matrix), 0.5);
  }
  np::bench::PrintTable(table);
  reporter.Write();
  return 0;
}
