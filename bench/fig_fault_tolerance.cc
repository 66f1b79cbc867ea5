// fig_fault_tolerance: accuracy, traffic, and load concentration for
// every algorithm class as the probe-loss rate sweeps 0% -> 30% (one
// retry allowed), plus a correlated regional-blackout head-to-head
// between Meridian and Tiers on the same world.
//
// Not a paper figure: the paper's experiments assume every probe
// answers. This is the robustness companion — what each scheme's
// accuracy and per-node load ledger look like once probes time out,
// targets crash, and the overlay must route around stale state. The
// blackout phase checks the load-concentration story quantitatively:
// Tiers funnels survivor traffic through the remaining cluster
// representatives (high per-node Gini) while Meridian's rings spread
// it, so blackout_tiers_gini_over_meridian must stay > 1.
//
// Emits BENCH_fault_tolerance.json: one phase per (loss, algorithm)
// scenario run plus the two blackout runs, and derived metrics
//   loss<pct>_<algo>_p_exact, loss<pct>_<algo>_msgs_per_query,
//   loss<pct>_<algo>_load_gini, loss<pct>_<algo>_p_qfail,
//   blackout_meridian_load_gini, blackout_tiers_load_gini,
//   blackout_tiers_gini_over_meridian  (expected > 1)
#include <memory>
#include <string>
#include <vector>

#include "algos/registry.h"
#include "bench/common.h"
#include "bench/reporter.h"
#include "core/scenario.h"
#include "matrix/generators.h"
#include "util/table.h"

#include "util/contract.h"

namespace {

using np::core::ChurnSchedule;
using np::core::ChurnScheduleConfig;
using np::core::ScenarioConfig;
using np::core::ScenarioReport;

/// Mean over epochs — the sweep gates on these, and per-epoch query
/// counts are equal so the unweighted mean is the run-wide rate.
double MeanPExact(const ScenarioReport& report) {
  double sum = 0.0;
  for (const auto& epoch : report.epochs) sum += epoch.p_exact_closest;
  return report.epochs.empty() ? 0.0
                               : sum / static_cast<double>(report.epochs.size());
}

double MeanPQueryFailed(const ScenarioReport& report) {
  double sum = 0.0;
  for (const auto& epoch : report.epochs) sum += epoch.p_query_failed;
  return report.epochs.empty() ? 0.0
                               : sum / static_cast<double>(report.epochs.size());
}

}  // namespace

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "fig_fault_tolerance",
      "Not a paper figure. p_exact, msgs/query, failed-query rate and "
      "per-node load Gini per algorithm as probe loss sweeps 0..30% "
      "(retry 2), plus a regional-blackout Meridian-vs-Tiers "
      "load-concentration head-to-head on one clustered world.");
  const bool quick = np::bench::QuickScale();

  np::matrix::ClusteredConfig wconfig;
  wconfig.num_clusters = quick ? 4 : 8;
  wconfig.nets_per_cluster = quick ? 15 : 40;
  wconfig.peers_per_net = 2;
  wconfig.delta = 0.8;
  np::util::Rng wrng(7);
  const auto world = np::matrix::GenerateClustered(wconfig, wrng);
  const np::core::MatrixSpace space(world.matrix);

  ChurnScheduleConfig cconfig;
  cconfig.duration_s = quick ? 240.0 : 400.0;
  cconfig.events_per_s = quick ? 0.3 : 0.5;
  cconfig.join_fraction = 0.5;
  cconfig.seed = 13;
  const ChurnSchedule schedule = ChurnSchedule::Poisson(cconfig);

  ScenarioConfig sconfig;
  sconfig.initial_overlay =
      static_cast<np::NodeId>(world.layout.peer_count() * 2 / 3);
  sconfig.epochs = 4;
  sconfig.queries_per_epoch = quick ? 80 : 250;
  sconfig.num_threads = 0;
  sconfig.fault.max_attempts = 2;
  sconfig.fault.track_load = true;
  sconfig.seed = 11;

  const std::vector<std::string> algorithms = {
      "meridian", "karger-ruhl", "tapestry", "beaconing", "tiers"};
  const std::vector<double> loss_rates = {0.0, 0.1, 0.2, 0.3};

  np::bench::Reporter reporter("fault_tolerance");
  np::util::Table table({"loss", "algorithm", "p_exact", "p_qfail",
                         "msgs/query", "load_gini"});
  for (const double loss : loss_rates) {
    const std::string pct =
        std::to_string(static_cast<int>(loss * 100.0 + 0.5));
    for (const std::string& name : algorithms) {
      ScenarioConfig run = sconfig;
      run.fault.loss_rate = loss;
      const auto algo = np::algos::MakeAlgorithm(name);
      ScenarioReport report;
      {
        auto phase = reporter.Phase(
            "scenario_loss" + pct + "_" + name,
            static_cast<double>(run.epochs * run.queries_per_epoch));
        report = RunScenario(space, &world.layout, *algo, schedule, run);
      }
      const double p_exact = MeanPExact(report);
      const double p_qfail = MeanPQueryFailed(report);
      reporter.Derive("loss" + pct + "_" + name + "_p_exact", p_exact);
      reporter.Derive("loss" + pct + "_" + name + "_msgs_per_query",
                      report.messages_per_query);
      reporter.Derive("loss" + pct + "_" + name + "_load_gini",
                      report.load.gini);
      reporter.Derive("loss" + pct + "_" + name + "_p_qfail", p_qfail);
      table.AddRow({pct + "%", name, np::util::FormatDouble(p_exact, 3),
                    np::util::FormatDouble(p_qfail, 3),
                    np::util::FormatDouble(report.messages_per_query, 1),
                    np::util::FormatDouble(report.load.gini, 3)});
    }
  }

  // Blackout head-to-head: every live member of one cluster crashes
  // at mid-run under 10% loss; whose survivors carry the traffic?
  ScenarioConfig bconfig = sconfig;
  bconfig.fault.loss_rate = 0.1;
  bconfig.blackouts.push_back({cconfig.duration_s / 2.0, 2});
  double meridian_gini = 0.0;
  double tiers_gini = 0.0;
  for (const std::string& name : {std::string("meridian"),
                                  std::string("tiers")}) {
    const auto algo = np::algos::MakeAlgorithm(name);
    ScenarioReport report;
    {
      auto phase = reporter.Phase(
          "scenario_blackout_" + name,
          static_cast<double>(bconfig.epochs * bconfig.queries_per_epoch));
      report = RunScenario(space, &world.layout, *algo, schedule, bconfig);
    }
    reporter.Derive("blackout_" + name + "_load_gini", report.load.gini);
    table.AddRow({"blackout", name,
                  np::util::FormatDouble(MeanPExact(report), 3),
                  np::util::FormatDouble(MeanPQueryFailed(report), 3),
                  np::util::FormatDouble(report.messages_per_query, 1),
                  np::util::FormatDouble(report.load.gini, 3)});
    if (name == "meridian") {
      meridian_gini = report.load.gini;
    } else {
      tiers_gini = report.load.gini;
    }
  }
  reporter.Derive("blackout_tiers_gini_over_meridian",
                  meridian_gini > 0.0 ? tiers_gini / meridian_gini : 0.0);

  np::bench::PrintTable(table);
  np::bench::PrintNote(
      "identical churn schedule across all runs; loss sweep isolates "
      "the probe-loss axis (no crashes), blackout phase adds the "
      "correlated mass-crash. Tiers concentrates post-blackout load on "
      "surviving representatives, so blackout_tiers_gini_over_meridian "
      "must stay > 1.");
  reporter.Write();
  return 0;
}
