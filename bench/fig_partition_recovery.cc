// fig_partition_recovery: degradation envelope under clean network
// partitions. One clustered world splits into two halves for 1, 3, or
// 5 epochs; for each duration x algorithm the bench reports how deep
// the partition-aware accuracy (p_exact_reachable) dips during the
// window and how many epochs after the heal the overlay needs to claw
// back to 95% of its pre-fault accuracy — the suspicion ledger's
// quarantine/probation arc and the heal-epoch rejoin refresh are what
// make the recovery fast.
//
// Not a paper figure: the paper's overlays never see a partition. This
// is the robustness envelope CI gates on — a regression that slows
// self-healing shows up as recovery_epochs jumping past the gate.
//
// Emits BENCH_partition_recovery.json: one phase per (duration, algo)
// run and derived metrics
//   dur<d>_<algo>_pre_p_exact    mean p_exact over the 3 pre epochs
//   dur<d>_<algo>_dip            min p_exact_reachable in the window
//   dur<d>_<algo>_recovery_epochs  epochs after heal until p_exact
//                                  >= 0.95 * pre (99 = never)
//   dur<d>_<algo>_post_p_exact   mean p_exact over the post epochs
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algos/registry.h"
#include "bench/common.h"
#include "bench/reporter.h"
#include "core/scenario.h"
#include "matrix/generators.h"
#include "util/contract.h"
#include "util/table.h"

namespace {

using np::core::ChurnSchedule;
using np::core::ChurnScheduleConfig;
using np::core::FaultConfig;
using np::core::ScenarioConfig;
using np::core::ScenarioReport;

constexpr int kPreEpochs = 3;
constexpr int kPostEpochs = 3;
constexpr double kRecoveryFraction = 0.95;
constexpr int kNeverRecovered = 99;

double MeanPExactOver(const ScenarioReport& report, int first, int last) {
  double sum = 0.0;
  int n = 0;
  for (int e = first; e <= last &&
                      e < static_cast<int>(report.epochs.size());
       ++e) {
    sum += report.epochs[static_cast<std::size_t>(e)].p_exact_closest;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

}  // namespace

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "fig_partition_recovery",
      "Not a paper figure. Partition-duration sweep on one clustered "
      "world split into two halves: per algorithm, the minimum "
      "partition-aware accuracy (p_exact_reachable) during the window "
      "and the epochs needed after the heal to recover 95% of the "
      "pre-fault p_exact. Suspicion ledger on (3 strikes), probe loss "
      "0 so the dip is pure partition damage.");
  const bool quick = np::bench::QuickScale();

  np::matrix::ClusteredConfig wconfig;
  wconfig.num_clusters = quick ? 4 : 8;
  wconfig.nets_per_cluster = quick ? 15 : 30;
  wconfig.peers_per_net = 2;
  wconfig.delta = 0.8;
  np::util::Rng wrng(7);
  const auto world = np::matrix::GenerateClustered(wconfig, wrng);
  const np::core::MatrixSpace space(world.matrix);

  // Both halves of the cluster id range go dark to each other.
  std::vector<std::vector<int>> groups(2);
  for (int c = 0; c < wconfig.num_clusters; ++c) {
    groups[c < wconfig.num_clusters / 2 ? 0 : 1].push_back(c);
  }

  const std::vector<std::string> algorithms = {"tiers", "karger-ruhl",
                                               "meridian", "coord-vivaldi"};
  const std::vector<int> durations = {1, 3, 5};

  np::bench::Reporter reporter("partition_recovery");
  np::util::Table table({"duration", "algorithm", "pre_p_exact", "dip",
                         "recovery_epochs", "post_p_exact"});
  for (const int duration : durations) {
    const int epochs = kPreEpochs + duration + kPostEpochs;
    // One schedule per duration: epoch windows scale with the horizon,
    // but every algorithm of a duration sees the identical event list.
    ChurnScheduleConfig cconfig;
    cconfig.duration_s = 50.0 * epochs;
    cconfig.events_per_s = quick ? 0.1 : 0.2;
    cconfig.join_fraction = 0.5;
    cconfig.seed = 13;
    const ChurnSchedule schedule = ChurnSchedule::Poisson(cconfig);

    ScenarioConfig sconfig;
    sconfig.initial_overlay =
        static_cast<np::NodeId>(world.layout.peer_count() * 2 / 3);
    sconfig.epochs = epochs;
    sconfig.queries_per_epoch = quick ? 100 : 250;
    sconfig.num_threads = 0;
    FaultConfig::Partition window;
    window.start_epoch = kPreEpochs;
    window.end_epoch = kPreEpochs + duration;
    window.groups = groups;
    sconfig.fault.partitions.push_back(window);
    sconfig.fault.suspicion.strikes = 3;
    sconfig.seed = 11;

    const std::string dur = "dur" + std::to_string(duration);
    for (const std::string& name : algorithms) {
      const auto algo = np::algos::MakeAlgorithm(name);
      ScenarioReport report;
      {
        auto phase = reporter.Phase(
            dur + "_" + name,
            static_cast<double>(sconfig.epochs * sconfig.queries_per_epoch));
        report = RunScenario(space, &world.layout, *algo, schedule, sconfig);
      }
      const double pre = MeanPExactOver(report, 0, kPreEpochs - 1);
      double dip = 1.0;
      for (int e = kPreEpochs; e < kPreEpochs + duration; ++e) {
        dip = std::min(
            dip, report.epochs[static_cast<std::size_t>(e)].p_exact_reachable);
      }
      // First post-heal epoch back within kRecoveryFraction of the
      // pre-fault accuracy; 0 = the epoch right after the heal.
      int recovery = kNeverRecovered;
      for (int k = 0; k < kPostEpochs; ++k) {
        const std::size_t e =
            static_cast<std::size_t>(kPreEpochs + duration + k);
        if (report.epochs[e].p_exact_closest >= kRecoveryFraction * pre) {
          recovery = k;
          break;
        }
      }
      const double post = MeanPExactOver(report, kPreEpochs + duration,
                                         epochs - 1);
      reporter.Derive(dur + "_" + name + "_pre_p_exact", pre);
      reporter.Derive(dur + "_" + name + "_dip", dip);
      reporter.Derive(dur + "_" + name + "_recovery_epochs",
                      static_cast<double>(recovery));
      reporter.Derive(dur + "_" + name + "_post_p_exact", post);
      table.AddRow({std::to_string(duration), name,
                    np::util::FormatDouble(pre, 3),
                    np::util::FormatDouble(dip, 3), std::to_string(recovery),
                    np::util::FormatDouble(post, 3)});
    }
  }

  np::bench::PrintTable(table);
  np::bench::PrintNote(
      "window = epochs [3, 3+duration); dip is the worst "
      "p_exact_reachable inside it (truth restricted to the target's "
      "component, honest failures on unreachable targets count "
      "correct). recovery_epochs = first post-heal epoch at >= 95% of "
      "pre-fault p_exact (99 = not within the measured tail). CI gates "
      "the 3-epoch dip floor and recovery <= 2 per algorithm.");
  reporter.Write();
  return 0;
}
