// Ablation H: Meridian accuracy under churn — incremental ring
// maintenance vs a from-scratch build, on the control space and the
// clustered world.
//
// The paper's simulator evaluates a static converged overlay; deployed
// P2P systems never have one. This quantifies how much accuracy the
// join/leave protocol costs, over 4 scenario-engine epochs of fixed-mix
// Poisson churn. Derived keys <world>_<column> are CI-gated against
// bench/baselines/BENCH_ablation_churn_quick.json.
#include <cstdint>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/reporter.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "matrix/generators.h"
#include "meridian/meridian.h"

#include "util/contract.h"

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "ablation_churn",
      "Not a paper figure. Accuracy per churn epoch stays close to the "
      "fresh-rebuild bound on the control space; clustered accuracy is "
      "equally poor maintained or rebuilt.");

  const bool quick = np::bench::QuickScale();
  const int events = quick ? 160 : 480;
  np::core::ScenarioConfig sconfig;
  sconfig.initial_overlay = quick ? 300 : 700;
  sconfig.epochs = 4;
  sconfig.queries_per_epoch = quick ? 100 : 400;
  np::core::ChurnScheduleConfig churn;
  churn.join_fraction = 0.5;
  churn.events_per_s = events / churn.duration_s;

  np::bench::Reporter reporter("ablation_churn");
  np::util::Table table({"world", "epoch0", "epoch1", "epoch2", "epoch3",
                         "rebuilt", "final_members"});

  const auto run = [&](const np::core::LatencySpace& space,
                       const std::string& label, std::uint64_t seed) {
    churn.seed = seed;
    sconfig.seed = seed;
    const auto schedule = np::core::ChurnSchedule::Poisson(churn);
    np::meridian::MeridianOverlay maintained{np::meridian::MeridianConfig{}};
    const auto report =
        np::core::RunScenario(space, nullptr, maintained, schedule, sconfig);

    np::meridian::MeridianOverlay fresh{np::meridian::MeridianConfig{}};
    np::core::ExperimentConfig rebuild;
    rebuild.overlay_size = report.final_members;
    rebuild.num_queries = sconfig.queries_per_epoch;
    np::util::Rng rng(seed);
    const auto rebuilt =
        np::core::RunGenericExperiment(space, fresh, rebuild, rng);

    std::vector<std::string> row{label};
    for (const np::core::EpochReport& epoch : report.epochs) {
      const std::string k = std::to_string(epoch.epoch);
      reporter.Derive(label + "_epoch" + k + "_p_exact", epoch.p_exact_closest);
      row.push_back(np::util::FormatDouble(epoch.p_exact_closest, 3));
    }
    reporter.Derive(label + "_rebuilt_p_exact", rebuilt.p_exact_closest);
    reporter.Derive(label + "_final_members",
                    static_cast<double>(report.final_members));
    row.push_back(np::util::FormatDouble(rebuilt.p_exact_closest, 3));
    row.push_back(std::to_string(report.final_members));
    table.AddRow(std::move(row));
  };

  np::util::Rng euclid_rng(1);
  const auto euclid = np::matrix::GenerateEuclidean(
      quick ? 500 : 1000, np::matrix::EuclideanConfig{}, euclid_rng);
  run(np::core::MatrixSpace(euclid.matrix), "euclidean", 11);

  np::matrix::ClusteredConfig cconfig;
  cconfig.nets_per_cluster = 50;
  cconfig.num_clusters = quick ? 5 : 10;
  np::util::Rng cluster_rng(2);
  const auto clustered = np::matrix::GenerateClustered(cconfig, cluster_rng);
  run(np::core::MatrixSpace(clustered.matrix), "clustered", 12);

  np::bench::PrintTable(table);
  np::bench::PrintNote(
      "epoch<k> = accuracy after each quarter of the churn schedule under "
      "incremental maintenance; rebuilt = a fresh overlay of the same size "
      "on the same world, not the same members.");
  reporter.Write();
  return 0;
}
