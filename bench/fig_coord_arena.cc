// fig_coord_arena: the coordinate nearest-peer schemes (coord-vivaldi,
// coord-pic, coord-landmark) head-to-head with the structured overlays
// (karger-ruhl, tiers, beaconing) under session churn, sweeping
// n ∈ {10^3, 10^4, 10^5} on the implicit embedded-coordinate backend.
//
// Not a paper figure: the paper predates deployed coordinate systems'
// maturity and could not evaluate them (§2.2 discusses the embedding
// substrate). This is the msgs-per-query vs P(exact) tradeoff the
// coordinate approach buys: queries cost O(placement + top-k
// refinement) real probes instead of a structured search, while the
// embedding's accuracy — degraded honestly by churn, since joins,
// departures and keep-fresh gossip all bill through the probe ledger —
// bounds how often the top-k candidate list still contains the true
// nearest peer.
//
// Emits BENCH_coord_arena.json: one phase per (n, model, algorithm)
// scenario run, and derived metrics
//   n<k>_<model>_<algo>_p_exact, _msgs_per_query, _maint_per_event,
//   _build_messages,
//   n<k>_<model>_kr_query_cost_over_vivaldi  (expected > 1: the
//   structured search pays more per query than placement + top-k).
// All derived metrics are deterministic (fixed seeds, thread-invariant
// engine) and CI-gated against a committed baseline via
// bench_compare.py --derived / --require. The quick scale (CI smoke)
// sweeps n ∈ {1000, 4000}.
#include <memory>
#include <string>
#include <vector>

#include "algos/registry.h"
#include "bench/common.h"
#include "bench/reporter.h"
#include "core/scenario.h"
#include "core/space_factory.h"
#include "matrix/embedded_space.h"

#include "util/contract.h"

namespace {

using np::NodeId;
using np::algos::MakeAlgorithm;
using np::core::ChurnSchedule;
using np::core::ChurnScheduleConfig;
using np::core::ScenarioConfig;
using np::core::ScenarioReport;
using np::core::SessionModel;
using np::core::SpaceFactory;

struct ModelCase {
  std::string name;
  ChurnSchedule schedule;
};

/// Session churn scaled to the overlay: the event rate keeps the same
/// churn pressure per member at every sweep point (2 ev/s at an
/// overlay of 3000 — the scenarios/coord_arena.json operating point).
std::vector<ModelCase> Models(NodeId overlay) {
  ChurnScheduleConfig base;
  base.duration_s = 600.0;
  base.events_per_s = static_cast<double>(overlay) / 1500.0;
  base.mean_session_s = 240.0;
  base.seed = 41;

  std::vector<ModelCase> models;
  {
    ChurnScheduleConfig config = base;
    config.session_model = SessionModel::kLogNormal;
    config.lognormal_sigma = 1.5;
    models.push_back({"lognormal", ChurnSchedule::Poisson(config)});
  }
  {
    ChurnScheduleConfig config = base;
    config.session_model = SessionModel::kPareto;
    config.pareto_alpha = 1.6;
    models.push_back({"pareto", ChurnSchedule::Poisson(config)});
  }
  return models;
}

}  // namespace

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "fig_coord_arena",
      "Not a paper figure. Coordinate nearest-peer schemes vs structured "
      "overlays under lognormal/pareto session churn: P(exact closest), "
      "messages per query, maintenance per event and build cost, "
      "n in {1e3, 1e4, 1e5} on the implicit embedded backend.");
  const bool quick = np::bench::QuickScale();

  const std::vector<NodeId> sweep =
      quick ? std::vector<NodeId>{1000, 4000}
            : std::vector<NodeId>{1000, 10000, 100000};
  const int queries = quick ? 60 : 200;

  const std::vector<std::string> algorithms = {
      "coord-vivaldi", "coord-pic", "coord-landmark",
      "karger-ruhl",   "tiers",     "beaconing"};

  np::bench::Reporter reporter("coord_arena");
  np::util::Table table({"n", "model", "algorithm", "members", "p_exact",
                         "msgs/query", "maint/event", "build_msgs"});
  for (const NodeId n : sweep) {
    np::matrix::EmbeddedSpaceConfig wconfig;
    wconfig.num_nodes = n;
    wconfig.dimensions = 3;
    wconfig.side_ms = 100.0;
    wconfig.distortion = 0.1;
    wconfig.seed = 23;
    const SpaceFactory world = SpaceFactory::MakeEmbedded(wconfig);

    ScenarioConfig sconfig;
    sconfig.initial_overlay = n * 3 / 10;
    sconfig.epochs = 3;
    sconfig.queries_per_epoch = queries;
    sconfig.num_threads = 0;
    sconfig.seed = 13;

    for (const ModelCase& model : Models(sconfig.initial_overlay)) {
      double vivaldi_query_cost = 0.0;
      double kr_query_cost = 0.0;
      for (const std::string& name : algorithms) {
        const std::string key =
            "n" + std::to_string(n) + "_" + model.name + "_" + name;
        const auto algo = MakeAlgorithm(name);
        ScenarioReport report;
        {
          auto phase = reporter.Phase(
              "scenario_" + key,
              static_cast<double>(sconfig.epochs *
                                  sconfig.queries_per_epoch));
          report = RunScenario(world.space(), world.layout(), *algo,
                               model.schedule, sconfig);
        }
        const np::core::EpochReport& last = report.epochs.back();
        reporter.Derive(key + "_p_exact", last.p_exact_closest);
        reporter.Derive(key + "_msgs_per_query", report.messages_per_query);
        reporter.Derive(key + "_maint_per_event",
                        report.maintenance_per_event);
        reporter.Derive(key + "_build_messages",
                        static_cast<double>(report.build_messages));
        if (name == "coord-vivaldi") {
          vivaldi_query_cost = report.messages_per_query;
        } else if (name == "karger-ruhl") {
          kr_query_cost = report.messages_per_query;
        }
        table.AddRow({std::to_string(n), model.name, name,
                      std::to_string(report.final_members),
                      np::util::FormatDouble(last.p_exact_closest, 3),
                      np::util::FormatDouble(report.messages_per_query, 1),
                      np::util::FormatDouble(report.maintenance_per_event, 1),
                      std::to_string(report.build_messages)});
      }
      reporter.Derive(
          "n" + std::to_string(n) + "_" + model.name +
              "_kr_query_cost_over_vivaldi",
          vivaldi_query_cost > 0.0 ? kr_query_cost / vivaldi_query_cost
                                   : 0.0);
    }
  }
  np::bench::PrintTable(table);
  np::bench::PrintNote(
      "identical schedule per (n, model) across algorithms; coordinate "
      "schemes answer queries from placement + top-k refinement probes "
      "(flat msgs/query), the structured overlays search — every "
      "*_kr_query_cost_over_vivaldi must stay > 1 while coord-* p_exact "
      "rides on embedding accuracy degraded honestly by churn.");
  reporter.Write();
  return 0;
}
