// Quickstart: build a clustered latency world, run a Meridian
// closest-peer search, and watch the clustering condition defeat it.
//
//   $ ./build/example_quickstart
//
// Walks through the library's three core steps:
//   1. generate the paper's §4 world (clusters of end-networks),
//   2. build a Meridian overlay over most peers,
//   3. query the nearest peer for held-out targets and compare with
//      ground truth — then do the same on a Euclidean control space
//      where Meridian works.
#include <iostream>

#include "core/experiment.h"
#include "matrix/generators.h"
#include "meridian/meridian.h"

int main() {
  // 1. A clustered world: 8 clusters x 60 end-networks x 2 peers.
  //    All end-networks sit 4-6 ms from their cluster-hub (delta=0.2),
  //    LAN mates are 100 us apart — the setup of paper Figs 8-9.
  np::matrix::ClusteredConfig world_config;
  world_config.num_clusters = 8;
  world_config.nets_per_cluster = 60;
  world_config.delta = 0.2;
  np::util::Rng world_rng(/*seed=*/42);
  const auto world = np::matrix::GenerateClustered(world_config, world_rng);
  std::cout << "world: " << world.layout.peer_count() << " peers in "
            << world.layout.net_count() << " end-networks across "
            << world.layout.cluster_count() << " clusters\n";

  // 2 + 3. Overlay and queries, via the experiment runner (it holds
  //    out targets, tracks ground truth and meters probes).
  np::meridian::MeridianOverlay meridian{np::meridian::MeridianConfig{}};
  np::core::ExperimentConfig run;
  run.overlay_size = world.layout.peer_count() - 60;
  run.num_queries = 1000;
  np::util::Rng rng(7);
  const auto clustered_metrics =
      np::core::RunClusteredExperiment(world, meridian, run, rng);

  std::cout << "\nMeridian under the clustering condition:\n";
  std::cout << "  P(found the exact closest peer) = "
            << clustered_metrics.p_exact_closest << "\n";
  std::cout << "  P(found a peer in the right cluster) = "
            << clustered_metrics.p_correct_cluster << "\n";
  std::cout << "  mean probes per query = " << clustered_metrics.mean_probes
            << "\n";
  std::cout << "  -> it reaches the right cluster but almost never the "
               "right end-network.\n";

  // Control: the same algorithm on a growth-constrained space.
  np::util::Rng euclid_rng(43);
  np::matrix::EuclideanConfig euclid_config;
  euclid_config.dimensions = 3;
  const auto euclid = np::matrix::GenerateEuclidean(
      world.layout.peer_count(), euclid_config, euclid_rng);
  const np::core::MatrixSpace euclid_space(euclid.matrix);
  np::meridian::MeridianOverlay meridian2{np::meridian::MeridianConfig{}};
  np::util::Rng rng2(8);
  const auto euclid_metrics =
      np::core::RunGenericExperiment(euclid_space, meridian2, run, rng2);

  std::cout << "\nSame algorithm on a Euclidean control space:\n";
  std::cout << "  P(exact closest) = " << euclid_metrics.p_exact_closest
            << ", mean stretch = " << euclid_metrics.mean_stretch << "\n";
  std::cout << "  -> the failure above is the topology's fault, not the "
               "algorithm's.\n";
  return 0;
}
