#include "core/scenario.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "core/engine_setup.h"
#include "core/query_batch.h"
#include "matrix/partitioned_space.h"
#include "util/contract.h"

namespace np::core {

ScenarioReport RunScenario(const LatencySpace& space,
                           const matrix::ClusterLayout* layout,
                           NearestPeerAlgorithm& algo,
                           const ChurnSchedule& schedule,
                           const ScenarioConfig& config,
                           const std::vector<NodeId>& population) {
  NP_REPORT_AFFECTING();
  EngineSetup setup(space, layout, algo, schedule, config, population);
  ScenarioReport report = setup.header();
  const ChurnDriver& driver = setup.driver();
  const bool track_load = config.fault.track_load;
  PerNodeLedger& ledger = setup.ledger();
  std::vector<std::uint64_t> ledger_prev;
  if (track_load) {
    ledger_prev = ledger.Counts();
  }
  // The previous epoch's members and truth memos, which this epoch's
  // scoring carries forward (TruthMemo).
  std::vector<NodeId> prev_members;
  std::vector<TruthMemo> memos;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    EpochReport er;

    // --- Churn window -----------------------------------------------------
    setup.RunWindow(epoch, er);

    // --- Measurement epoch ------------------------------------------------
    const std::vector<NodeId>& members = driver.members();
    const std::vector<double> zipf_cdf = setup.TargetCdf(driver.pool());
    QueryBatch batch = setup.Batch(epoch, members, driver.pool(),
                                   driver.crashed(), zipf_cdf);
    const MemberDelta delta(prev_members, members, space.size());
    batch.delta = &delta;
    const std::vector<QueryOutcome> outcomes = RunQueryBatch(
        batch, algo, config.num_threads,
        static_cast<std::size_t>(config.queries_per_epoch), &memos);
    prev_members = members;

    ReduceQueryOutcomes(outcomes, er, &report.failed_queries);
    if (batch.active_window != nullptr) {
      er.components = SplitByComponent(outcomes, members, *batch.active_window);
    }
    setup.TakeFaultDeltas().AddTo(er);

    if (track_load) {
      std::vector<std::uint64_t> now = ledger.Counts();
      const PerNodeSnapshot snap =
          PerNodeSnapshot::Over(now, &ledger_prev, members);
      er.load_max = snap.max;
      er.load_median = snap.median;
      er.load_gini = snap.gini;
      // Load concentration inside each partition component: who
      // carries a side's traffic while the other side is dark.
      for (EpochReport::ComponentStats& c : er.components) {
        std::vector<NodeId> comp_members;
        comp_members.reserve(static_cast<std::size_t>(c.members));
        for (const NodeId m : members) {
          if (matrix::ComponentOf(*batch.active_window, m) == c.component) {
            comp_members.push_back(m);
          }
        }
        c.load_gini =
            PerNodeSnapshot::Over(now, &ledger_prev, comp_members).gini;
      }
      ledger_prev = std::move(now);
    }

    report.epochs.push_back(er);
  }

  setup.Finish(report);
  return report;
}

}  // namespace np::core
