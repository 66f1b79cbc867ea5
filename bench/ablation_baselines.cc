// Ablation D: every nearest-peer scheme the paper discusses (§2.3, §6),
// on the clustered world and on a Euclidean control.
//
// The paper's argument is universal: Meridian, Karger-Ruhl-style
// sampling, identifier-based (Tapestry-style) sampling, Tiers'
// hierarchy, Beaconing, and coordinate walks (PIC) all degenerate under
// the clustering condition, while all of them work acceptably on a
// growth-constrained space. Probes carry realistic measurement noise
// (0.5 ms floor + 2%) so exact-arithmetic triangulation cannot cheat.
#include <functional>
#include <memory>

#include "algos/registry.h"
#include "bench/common.h"
#include "coord/pic.h"
#include "core/experiment.h"
#include "matrix/generators.h"

#include "util/contract.h"

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "ablation_baselines",
      "Not a paper figure (implements §7's 'more extensively evaluate "
      "all the different mechanisms'): every latency-only scheme has "
      "low exact-closest accuracy under clustering yet works on the "
      "Euclidean control.");

  const bool quick = np::bench::QuickScale();
  const int num_queries = quick ? 300 : 1500;

  np::matrix::ClusteredConfig cconfig;
  cconfig.nets_per_cluster = 125;
  cconfig.num_clusters = 10;
  np::util::Rng cluster_rng(51);
  const auto clustered = np::matrix::GenerateClustered(cconfig, cluster_rng);

  np::util::Rng euclid_rng(52);
  np::matrix::EuclideanConfig econfig;
  econfig.dimensions = 3;
  const auto euclid = np::matrix::GenerateEuclidean(
      clustered.layout.peer_count(), econfig, euclid_rng);
  const np::core::MatrixSpace euclid_space(euclid.matrix);

  using Factory =
      std::function<std::unique_ptr<np::core::NearestPeerAlgorithm>()>;
  std::vector<std::pair<std::string, Factory>> schemes;
  for (const char* name : {"oracle", "random", "meridian", "karger-ruhl",
                           "tapestry", "tiers", "beaconing"}) {
    const Factory make = [name] { return np::algos::MakeAlgorithm(name); };
    schemes.emplace_back(name, make);
  }
  schemes.emplace_back("pic", [] {
    return std::make_unique<np::coord::PicNearest>(np::coord::PicConfig{});
  });

  np::util::Table table({"scheme", "clustered_p_exact",
                         "clustered_p_cluster", "clustered_probes",
                         "euclid_p_exact", "euclid_stretch",
                         "euclid_probes"});
  for (const auto& [name, make] : schemes) {
    np::core::ExperimentConfig run;
    run.overlay_size = clustered.layout.peer_count() - 100;
    run.num_queries = num_queries;
    run.measurement_noise_frac = 0.02;
    run.measurement_noise_floor_ms = 0.5;

    auto clustered_algo = make();
    np::util::Rng rng_a(61);
    const auto cm = np::core::RunClusteredExperiment(
        clustered, *clustered_algo, run, rng_a);

    auto euclid_algo = make();
    np::util::Rng rng_b(62);
    const auto em = np::core::RunGenericExperiment(euclid_space,
                                                   *euclid_algo, run, rng_b);

    table.AddRow({name, np::util::FormatDouble(cm.p_exact_closest, 3),
                  np::util::FormatDouble(cm.p_correct_cluster, 3),
                  np::util::FormatDouble(cm.mean_probes, 1),
                  np::util::FormatDouble(em.p_exact_closest, 3),
                  np::util::FormatDouble(em.mean_stretch, 3),
                  np::util::FormatDouble(em.mean_probes, 1)});
  }
  np::bench::PrintTable(table);
  np::bench::PrintNote(
      "oracle probes every member (upper bound; its probe count is the "
      "brute-force cost every other scheme is trying to avoid).");
  return 0;
}
