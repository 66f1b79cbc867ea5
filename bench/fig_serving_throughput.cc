// fig_serving_throughput: query throughput and tail latency of the
// snapshot serving mode as reader threads and churn rate sweep, on the
// implicit EmbeddedSpace backend at deployment scale (n = 10^4 full,
// 10^5 spot point; quick scale n = 2000 for the CI smoke).
//
// Not a paper figure: the paper's simulations are one-shot and
// offline. This is the serving axis — RCU-style immutable snapshots
// let N reader threads answer queries lock-free while a single writer
// churns the live overlay toward the next epoch, so the question
// becomes what a deployed lookup service would ask: how does qps scale
// with readers, and what does churn pressure do to the tail?
//
// Two sweeps per algorithm (karger-ruhl and tiers — the accuracy and
// the cheap-maintenance representative):
//  * reader sweep — readers ∈ {1, 2, 4, 8} at the mid churn rate;
//  * churn sweep  — events/s ∈ {0.5, 2, 8} at 4 readers.
//
// Emits BENCH_serving_throughput.json. Derived metrics starting with
// "det_" are deterministic (fixed seeds; the serving engine's
// ScenarioReport is bit-identical to serial replay for every reader
// count — both facts asserted here and exported as det_ flags) and
// CI-gated via bench_compare.py --derived/--require; the wall_
// qps/latency metrics are machine-dependent, recorded by the
// bench-multicore job summary and never gated on exact values.
#include <string>
#include <vector>

#include "algos/registry.h"
#include "bench/common.h"
#include "bench/reporter.h"
#include "core/scenario.h"
#include "core/serving.h"
#include "core/space_factory.h"
#include "matrix/embedded_space.h"
#include "util/error.h"

#include "util/contract.h"

namespace {

using np::NodeId;
using np::algos::MakeAlgorithm;
using np::core::ChurnSchedule;
using np::core::ChurnScheduleConfig;
using np::core::RunScenario;
using np::core::RunServing;
using np::core::ScenarioConfig;
using np::core::ScenarioReport;
using np::core::ServingConfig;
using np::core::ServingReport;
using np::core::SpaceFactory;

ChurnSchedule SessionSchedule(double events_per_s) {
  // Lognormal sessions (heavy-tailed lifetimes) — the serving
  // scenario's churn model; only the arrival rate sweeps.
  ChurnScheduleConfig config;
  config.duration_s = 600.0;
  config.events_per_s = events_per_s;
  config.mean_session_s = 240.0;
  config.session_model = np::core::SessionModel::kLogNormal;
  config.lognormal_sigma = 1.5;
  config.seed = 29;
  return ChurnSchedule::Poisson(config);
}

/// Mean over epochs of a staleness field.
double MeanExactLive(const ServingReport& report) {
  double sum = 0.0;
  for (const auto& s : report.staleness) sum += s.p_exact_live;
  return report.staleness.empty()
             ? 0.0
             : sum / static_cast<double>(report.staleness.size());
}

double MeanFoundDeparted(const ServingReport& report) {
  double sum = 0.0;
  for (const auto& s : report.staleness) sum += s.p_found_departed;
  return report.staleness.empty()
             ? 0.0
             : sum / static_cast<double>(report.staleness.size());
}

/// Churn-rate tag for metric names: 0.5 -> "c05", 2 -> "c2", 8 -> "c8".
std::string ChurnTag(double events_per_s) {
  if (events_per_s < 1.0) {
    return "c0" + std::to_string(static_cast<int>(events_per_s * 10.0 + 0.5));
  }
  return "c" + std::to_string(static_cast<int>(events_per_s + 0.5));
}

}  // namespace

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "fig_serving_throughput",
      "Not a paper figure. Serving-mode qps and p50/p99 query latency "
      "vs reader threads {1,2,4,8} and churn rate {0.5,2,8}/s on an "
      "embedded world under lognormal session churn, with the "
      "snapshot-vs-replay bit-identity and reader-count invariance of "
      "every deterministic metric asserted and exported as gates.");
  const bool quick = np::bench::QuickScale();

  const NodeId n = quick ? 2000 : 10000;
  np::matrix::EmbeddedSpaceConfig wconfig;
  wconfig.num_nodes = n;
  wconfig.dimensions = 3;
  wconfig.side_ms = 100.0;
  wconfig.distortion = 0.1;
  wconfig.seed = 17;
  const SpaceFactory world = SpaceFactory::MakeEmbedded(wconfig);

  ScenarioConfig sconfig;
  sconfig.initial_overlay = n * 3 / 10;
  sconfig.epochs = 3;
  sconfig.queries_per_epoch = quick ? 150 : 400;
  sconfig.num_threads = 1;
  sconfig.seed = 11;

  const std::vector<std::string> algorithms = {"karger-ruhl", "tiers"};
  const std::vector<int> reader_sweep = {1, 2, 4, 8};
  const std::vector<double> churn_sweep = {0.5, 2.0, 8.0};
  const double mid_churn = 2.0;

  np::bench::Reporter reporter("serving_throughput");
  np::util::Table table({"algorithm", "readers", "churn/s", "qps", "p50_us",
                         "p99_us", "p_exact_live", "p_departed", "replay"});

  // All runs replay-identical, and every det_ metric reader-invariant:
  // both start at 1 and drop to 0 on the first violation.
  double all_replay_identical = 1.0;
  double reader_invariance = 1.0;

  for (const std::string& name : algorithms) {
    // Serial replay once per (algorithm, churn rate): the oracle every
    // reader count must reproduce bit-for-bit.
    for (const double churn : churn_sweep) {
      const ChurnSchedule schedule = SessionSchedule(churn);
      const auto replay_algo = MakeAlgorithm(name);
      ScenarioReport replay;
      {
        auto phase = reporter.Phase(
            "replay_" + ChurnTag(churn) + "_" + name,
            static_cast<double>(sconfig.epochs * sconfig.queries_per_epoch));
        replay = RunScenario(world.space(), world.layout(), *replay_algo,
                             schedule, sconfig);
      }

      const std::vector<int>& readers =
          churn == mid_churn ? reader_sweep : std::vector<int>{4};
      // Staleness at the first reader count; later counts must match.
      double ref_exact_live = -1.0;
      double ref_departed = -1.0;
      for (const int r : readers) {
        ServingConfig serving;
        serving.scenario = sconfig;
        serving.reader_threads = r;
        const auto algo = MakeAlgorithm(name);
        ServingReport report;
        {
          auto phase = reporter.Phase(
              "serving_" + ChurnTag(churn) + "_r" + std::to_string(r) + "_" +
                  name,
              static_cast<double>(sconfig.epochs *
                                  sconfig.queries_per_epoch));
          report = RunServing(world.space(), world.layout(), *algo, schedule,
                              serving);
        }
        if (!np::core::ScenarioReportsIdentical(report.scenario, replay)) {
          all_replay_identical = 0.0;
        }
        const double exact_live = MeanExactLive(report);
        const double departed = MeanFoundDeparted(report);
        if (ref_exact_live < 0.0) {
          ref_exact_live = exact_live;
          ref_departed = departed;
        } else if (exact_live != ref_exact_live || departed != ref_departed) {
          reader_invariance = 0.0;
        }

        const std::string wall_tag =
            "wall_" + ChurnTag(churn) + "_r" + std::to_string(r) + "_" + name;
        reporter.Derive(wall_tag + "_qps", report.qps);
        reporter.Derive(wall_tag + "_p50_us", report.query_latency_p50_us);
        reporter.Derive(wall_tag + "_p99_us", report.query_latency_p99_us);
        table.AddRow({name, std::to_string(r),
                      np::util::FormatDouble(churn, 1),
                      np::util::FormatDouble(report.qps, 0),
                      np::util::FormatDouble(report.query_latency_p50_us, 1),
                      np::util::FormatDouble(report.query_latency_p99_us, 1),
                      np::util::FormatDouble(exact_live, 3),
                      np::util::FormatDouble(departed, 3),
                      report.scenario.epochs.empty() ? "?" : "identical"});
      }
      // Deterministic per-(churn, algorithm) staleness — reader-count
      // invariant by the assertion above, so exported once.
      const std::string det_tag = "det_" + ChurnTag(churn) + "_" + name;
      reporter.Derive(det_tag + "_p_exact_live", ref_exact_live);
      reporter.Derive(det_tag + "_p_found_departed", ref_departed);
    }
  }

  reporter.Derive("det_replay_identical", all_replay_identical);
  reporter.Derive("det_reader_invariance", reader_invariance);
  NP_ENSURE(all_replay_identical == 1.0,
            "serving run diverged from serial replay");
  NP_ENSURE(reader_invariance == 1.0,
            "staleness metrics changed with the reader count");

  np::bench::PrintTable(table);
  np::bench::PrintNote(
      "det_ metrics are deterministic and CI-gated; wall_ qps/latency "
      "numbers are machine-dependent (recorded, never gated). Replay "
      "bit-identity and reader-count invariance are asserted in-process "
      "and exported as det_replay_identical / det_reader_invariance.");
  reporter.Write();
  return 0;
}
