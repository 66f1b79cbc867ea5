// fig_churn_cost: maintenance traffic per churn event and query
// traffic per lookup for every algorithm class, under the four churn
// models the schedule generator supports (exponential sessions,
// lognormal sessions, Pareto sessions, diurnal lognormal waves) on
// one clustered world and identical schedules per model.
//
// Not a paper figure: the paper measures static snapshots. This is
// the deployment-economics companion — what each scheme pays to keep
// its overlay consistent while the membership churns — and the
// head-to-head that justifies incremental Tiers: `tiers` (repair)
// must bill strictly below `tiers-rebuild` (the old per-epoch rebuild
// cost model) on the same schedule.
//
// Emits BENCH_churn_models.json: one phase per (model, algorithm)
// scenario run, and derived metrics
//   <model>_<algo>_maint_per_event, <model>_<algo>_msgs_per_query,
//   <model>_tiers_rebuild_over_repair  (expected > 1)
#include <memory>
#include <string>
#include <vector>

#include "algos/registry.h"
#include "bench/common.h"
#include "bench/reporter.h"
#include "core/scenario.h"
#include "matrix/generators.h"

#include "util/contract.h"

namespace {

using np::core::ChurnSchedule;
using np::core::ChurnScheduleConfig;
using np::core::DiurnalConfig;
using np::core::ScenarioReport;
using np::core::SessionModel;

struct ModelCase {
  std::string name;
  ChurnScheduleConfig config;
};

std::vector<ModelCase> Models(bool quick) {
  ChurnScheduleConfig base;
  base.duration_s = quick ? 240.0 : 600.0;
  base.events_per_s = quick ? 0.5 : 0.8;
  base.mean_session_s = quick ? 90.0 : 240.0;
  base.seed = 13;

  std::vector<ModelCase> models;
  {
    ChurnScheduleConfig config = base;
    config.session_model = SessionModel::kExponential;
    models.push_back({"exponential", config});
  }
  {
    ChurnScheduleConfig config = base;
    config.session_model = SessionModel::kLogNormal;
    config.lognormal_sigma = 1.5;
    models.push_back({"lognormal", config});
  }
  {
    ChurnScheduleConfig config = base;
    config.session_model = SessionModel::kPareto;
    config.pareto_alpha = 1.6;
    models.push_back({"pareto", config});
  }
  {
    ChurnScheduleConfig config = base;
    config.session_model = SessionModel::kLogNormal;
    config.lognormal_sigma = 1.5;
    config.diurnal.day_s = base.duration_s / 2.0;  // two waves per run
    config.diurnal.amplitude = 0.9;
    models.push_back({"diurnal", config});
  }
  return models;
}

}  // namespace

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "fig_churn_cost",
      "Not a paper figure. Maintenance messages per churn event and "
      "messages per query, per algorithm, under exponential / lognormal "
      "/ pareto / diurnal churn on one clustered world.");
  const bool quick = np::bench::QuickScale();

  np::matrix::ClusteredConfig wconfig;
  wconfig.num_clusters = quick ? 4 : 8;
  wconfig.nets_per_cluster = quick ? 15 : 40;
  wconfig.peers_per_net = 2;
  wconfig.delta = 0.8;
  np::util::Rng wrng(7);
  const auto world = np::matrix::GenerateClustered(wconfig, wrng);
  const np::core::MatrixSpace space(world.matrix);

  np::core::ScenarioConfig sconfig;
  sconfig.initial_overlay =
      static_cast<np::NodeId>(world.layout.peer_count() * 2 / 3);
  sconfig.epochs = 4;
  sconfig.queries_per_epoch = quick ? 80 : 250;
  sconfig.num_threads = 0;
  sconfig.seed = 11;

  const std::vector<std::string> algorithms = {
      "meridian", "karger-ruhl", "tapestry", "beaconing", "tiers",
      "tiers-rebuild"};

  np::bench::Reporter reporter("churn_models");
  np::util::Table table({"model", "algorithm", "p_exact_final",
                         "msgs/query", "maint/event"});
  for (const ModelCase& model : Models(quick)) {
    const ChurnSchedule schedule = ChurnSchedule::Poisson(model.config);
    double repair_bill = 0.0;
    double rebuild_bill = 0.0;
    for (const std::string& name : algorithms) {
      const auto algo = np::algos::MakeAlgorithm(name);
      ScenarioReport report;
      {
        auto phase = reporter.Phase(
            "scenario_" + model.name + "_" + name,
            static_cast<double>(sconfig.epochs * sconfig.queries_per_epoch));
        report = RunScenario(space, &world.layout, *algo, schedule, sconfig);
      }
      reporter.Derive(model.name + "_" + name + "_maint_per_event",
                      report.maintenance_per_event);
      reporter.Derive(model.name + "_" + name + "_msgs_per_query",
                      report.messages_per_query);
      if (name == "tiers") {
        repair_bill = report.maintenance_per_event;
      } else if (name == "tiers-rebuild") {
        rebuild_bill = report.maintenance_per_event;
      }
      table.AddRow({model.name, name,
                    np::util::FormatDouble(
                        report.epochs.back().p_exact_closest, 3),
                    np::util::FormatDouble(report.messages_per_query, 1),
                    np::util::FormatDouble(report.maintenance_per_event, 1)});
    }
    reporter.Derive(model.name + "_tiers_rebuild_over_repair",
                    repair_bill > 0.0 ? rebuild_bill / repair_bill : 0.0);
  }
  np::bench::PrintTable(table);
  np::bench::PrintNote(
      "identical schedule per model across algorithms; tiers-rebuild is "
      "the pre-repair cost model (full rebuild per churned epoch), so "
      "every *_tiers_rebuild_over_repair must stay > 1.");
  reporter.Write();
  return 0;
}
