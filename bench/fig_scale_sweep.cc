// fig_scale_sweep: accuracy, traffic, and construction cost as a
// function of overlay size, n ∈ {10^3, 10^4, 10^5}, on the implicit
// EmbeddedSpace backend (O(n * d) memory — the dense matrix this sweep
// replaces would need ~80 GB at n = 10^5).
//
// Not a paper figure: the paper's simulations stop at ~2500 peers.
// This is the "millions of users" axis the ROADMAP opens. Each sweep
// point measures three regimes per algorithm:
//
//  * grown — a seed overlay grows to ~n/2 members through a join-only
//    churn schedule (maintenance billed per event exactly as a
//    deployment would pay it), then closest-peer queries run against
//    the live membership.
//  * batch — the same-size overlay is built in one shot:
//    the serial Build is timed as the reference, ParallelBuild is
//    timed on every hardware thread (bit-identical state by the
//    determinism contract), queries measure the batch overlay on the
//    shared core/query_batch kernel, and a per-leave micro-bench
//    removes a sample of members through a metered space — the honest
//    per-leave repair bill that O(overlay) purge scans used to drown
//    out.
//  * churn — a leave-heavy session schedule (every joiner departs
//    after a ~200 s mean session) drives tens of thousands of leaves
//    at the top sweep point, which indexed membership makes tractable.
//
// Emits BENCH_scale_sweep.json. Derived metrics starting with "n" are
// deterministic (fixed seeds, thread-invariant engine and builds) and
// CI-gated against a committed baseline via bench_compare.py
// --derived; the speedup_parallel_build* metrics are wall-clock
// ratios (machine-dependent, recorded by the bench-multicore job, not
// gated). The quick scale (CI smoke) sweeps n ∈ {1000, 2000, 4000}.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algos/registry.h"
#include "bench/common.h"
#include "bench/reporter.h"
#include "core/experiment.h"
#include "core/query_batch.h"
#include "core/scenario.h"
#include "core/space_factory.h"
#include "matrix/embedded_space.h"
#include "util/error.h"
#include "util/parallel.h"

#include "util/contract.h"

namespace {

using np::NodeId;
using np::algos::MakeAlgorithm;
using np::core::ChurnSchedule;
using np::core::ChurnScheduleConfig;
using np::core::MeteredSpace;
using np::core::ScenarioConfig;
using np::core::ScenarioReport;
using np::core::SpaceFactory;

/// Full Build() at n = 10^5 is quadratic for the structured overlays,
/// so the grown/churn regimes start from a small seed overlay and
/// apply incremental events — the honest deployment path: real
/// overlays are grown, not batch-built. The batch regime below is the
/// counterpart that IS batch-built.
NodeId SeedOverlay(NodeId n) { return std::max<NodeId>(64, n / 20); }

ChurnSchedule GrowthSchedule(NodeId n) {
  ChurnScheduleConfig config;
  config.duration_s = 600.0;
  // Pure growth: every event is a metered join so the maintenance
  // curve isolates what *scale* costs; leave repair is the churn
  // regime's subject.
  config.join_fraction = 1.0;
  const double target_events =
      static_cast<double>(n) / 2.0 - static_cast<double>(SeedOverlay(n));
  config.events_per_s = std::max(target_events, 16.0) / config.duration_s;
  config.seed = 29;
  return ChurnSchedule::Poisson(config);
}

ChurnSchedule LeaveHeavySchedule(NodeId n) {
  // Session mode: every arrival joins and leaves again after an
  // exponential ~200 s session inside the 600 s horizon, so leaves
  // arrive at nearly the join rate — the regime whose O(overlay)
  // purges used to be intractable at n = 10^5.
  ChurnScheduleConfig config;
  config.duration_s = 600.0;
  config.mean_session_s = 200.0;
  config.events_per_s =
      std::max(static_cast<double>(n) / 2.0, 16.0) / config.duration_s;
  config.seed = 41;
  return ChurnSchedule::Poisson(config);
}

}  // namespace

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "fig_scale_sweep",
      "Not a paper figure. P(exact closest), messages per query, "
      "maintenance per churn event, batch-vs-grown construction cost and "
      "per-leave repair bills vs overlay size on the implicit "
      "embedded-coordinate backend (no dense matrix).");
  const bool quick = np::bench::QuickScale();

  const std::vector<NodeId> sweep =
      quick ? std::vector<NodeId>{1000, 2000, 4000}
            : std::vector<NodeId>{1000, 10000, 100000};
  // Meridian's per-join handshake (contacts + their rings, plus ring
  // re-selection) and Tapestry's measure-everyone join are an order of
  // magnitude heavier than Karger-Ruhl's bounded sampling; cap them
  // below the top sweep point.
  const NodeId heavy_join_cap = 10000;
  const int queries = quick ? 60 : 150;

  np::bench::Reporter reporter("scale_sweep");
  np::util::Table grown_table({"n", "algorithm", "members", "p_exact",
                               "p95_excess_ms", "msgs/query", "maint/event"});
  np::util::Table batch_table({"n", "algorithm", "members", "p_exact",
                               "msgs/query", "build_serial_ms",
                               "build_par_ms", "speedup", "maint/leave"});
  np::util::Table churn_table({"n", "algorithm", "members", "joins",
                               "leaves", "p_exact", "maint/event"});
  double top_serial_ms = 0.0;
  double top_parallel_ms = 0.0;
  NodeId top_n = 0;

  for (const NodeId n : sweep) {
    np::matrix::EmbeddedSpaceConfig wconfig;
    wconfig.num_nodes = n;
    wconfig.dimensions = 3;
    wconfig.side_ms = 100.0;
    wconfig.distortion = 0.1;
    wconfig.seed = 17;
    const SpaceFactory world = SpaceFactory::MakeEmbedded(wconfig);
    const ChurnSchedule growth = GrowthSchedule(n);
    const ChurnSchedule leave_heavy = LeaveHeavySchedule(n);

    ScenarioConfig sconfig;
    sconfig.initial_overlay = SeedOverlay(n);
    sconfig.epochs = 2;
    sconfig.queries_per_epoch = queries;
    sconfig.num_threads = 0;
    sconfig.seed = 11;

    std::vector<std::string> algorithms = {"oracle", "random", "karger-ruhl",
                                           "tiers", "beaconing"};
    if (n <= heavy_join_cap) {
      algorithms.push_back("meridian");
      algorithms.push_back("tapestry");
    }

    // Deterministic batch membership: a fixed-seed shuffle of the
    // space, first half in the overlay, remainder the query-target pool.
    np::util::Rng split_rng(13);
    const np::core::OverlaySplit split =
        np::core::SplitOverlay(n, n / 2, split_rng);

    for (const std::string& name : algorithms) {
      const std::string key = "n" + std::to_string(n) + "_" + name;

      // --- grown: incremental joins from a seed overlay ------------------
      {
        const auto algo = MakeAlgorithm(name);
        ScenarioReport report;
        {
          auto phase = reporter.Phase(
              "scenario_n" + std::to_string(n) + "_" + name,
              static_cast<double>(sconfig.epochs * sconfig.queries_per_epoch));
          report = RunScenario(world.space(), world.layout(), *algo, growth,
                               sconfig);
        }
        const np::core::EpochReport& last = report.epochs.back();
        reporter.Derive(key + "_p_exact", last.p_exact_closest);
        reporter.Derive(key + "_msgs_per_query", report.messages_per_query);
        reporter.Derive(key + "_maint_per_event",
                        report.maintenance_per_event);
        reporter.Derive(key + "_excess_p95_ms", last.excess_latency_p95_ms);
        grown_table.AddRow(
            {std::to_string(n), name, std::to_string(report.final_members),
             np::util::FormatDouble(last.p_exact_closest, 3),
             np::util::FormatDouble(last.excess_latency_p95_ms, 2),
             np::util::FormatDouble(report.messages_per_query, 1),
             np::util::FormatDouble(report.maintenance_per_event, 1)});
      }

      // --- churn: leave-heavy session schedule ---------------------------
      {
        const auto algo = MakeAlgorithm(name);
        ScenarioReport report;
        {
          auto phase = reporter.Phase(
              "churn_n" + std::to_string(n) + "_" + name,
              static_cast<double>(leave_heavy.size()));
          report = RunScenario(world.space(), world.layout(), *algo,
                               leave_heavy, sconfig);
        }
        const np::core::EpochReport& last = report.epochs.back();
        std::int64_t joins = 0;
        std::int64_t leaves = 0;
        for (const auto& er : report.epochs) {
          joins += er.joins;
          leaves += er.leaves;
        }
        reporter.Derive(key + "_churn_p_exact", last.p_exact_closest);
        reporter.Derive(key + "_churn_maint_per_event",
                        report.maintenance_per_event);
        churn_table.AddRow(
            {std::to_string(n), name, std::to_string(report.final_members),
             std::to_string(joins), std::to_string(leaves),
             np::util::FormatDouble(last.p_exact_closest, 3),
             np::util::FormatDouble(report.maintenance_per_event, 1)});
      }

      // --- batch: one-shot construction + per-leave micro-bench ----------
      const auto batch_algo = MakeAlgorithm(name);
      if (!batch_algo->SupportsParallelBuild()) {
        continue;  // trivial builds (oracle/random) have nothing to time
      }
      // Both builds run through the same metered view so the timing
      // comparison is apples to apples (the atomic probe counter costs
      // the same on both sides), and the probe counts double as a
      // determinism check: serial and parallel must bill identically.
      const MeteredSpace batch_metered(world.space());
      double serial_ms = 0.0;
      {
        const auto serial_algo = MakeAlgorithm(name);
        np::util::Rng rng(np::util::Mix64(43));
        auto phase = reporter.Phase(
            "build_serial_n" + std::to_string(n) + "_" + name,
            static_cast<double>(split.members.size()));
        serial_algo->Build(batch_metered, split.members, rng);
        serial_ms = phase.Stop();
      }
      const std::uint64_t build_messages = batch_metered.probes();
      double parallel_ms = 0.0;
      {
        np::util::Rng rng(np::util::Mix64(43));
        auto phase = reporter.Phase(
            "build_parallel_n" + std::to_string(n) + "_" + name,
            static_cast<double>(split.members.size()));
        batch_algo->ParallelBuild(batch_metered, split.members, rng,
                                  /*num_threads=*/0);
        parallel_ms = phase.Stop();
      }
      NP_ENSURE(batch_metered.probes() == 2 * build_messages,
                "ParallelBuild billed differently than the serial Build");
      reporter.Derive(key + "_batch_build_messages",
                      static_cast<double>(build_messages));
      reporter.Derive("speedup_parallel_build_n" + std::to_string(n) + "_" +
                          name,
                      parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0);
      if (n == sweep.back()) {
        top_serial_ms += serial_ms;
        top_parallel_ms += parallel_ms;
        top_n = n;
      }

      // Queries against the batch overlay on the shared query kernel
      // (no third build): fault-free, uniform targets from the pool.
      np::core::QueryBatch qbatch;
      qbatch.space = &world.space();
      qbatch.layout = world.layout();
      qbatch.members = &split.members;
      qbatch.pool = &split.targets;
      qbatch.query_base = np::util::Mix64(59);
      np::core::EpochReport qstats;
      np::core::ReduceQueryOutcomes(
          np::core::RunQueryBatch(qbatch, *batch_algo, sconfig.num_threads,
                                  static_cast<std::size_t>(queries)),
          qstats, nullptr, nullptr);
      reporter.Derive(key + "_batch_p_exact", qstats.p_exact_closest);
      reporter.Derive(key + "_batch_msgs_per_query", qstats.messages_per_query);

      // Per-leave repair bill: remove a deterministic sample of the
      // batch overlay through the metered space. With indexed
      // membership the unbilled bookkeeping is O(1)-amortized, so
      // this isolates the scheme's own repair probes (and the wall
      // clock stays flat in n — the acceptance check for "no
      // O(overlay) scan in RemoveMember").
      const std::size_t num_leaves =
          std::min<std::size_t>(quick ? 100 : 200, split.members.size() / 4);
      std::vector<NodeId> victims;
      const std::size_t stride =
          std::max<std::size_t>(1, split.members.size() / num_leaves);
      for (std::size_t i = 0;
           i < split.members.size() && victims.size() < num_leaves;
           i += stride) {
        victims.push_back(split.members[i]);
      }
      const std::uint64_t before_leaves = batch_metered.probes();
      {
        auto phase =
            reporter.Phase("leaves_n" + std::to_string(n) + "_" + name,
                           static_cast<double>(victims.size()));
        for (const NodeId victim : victims) {
          batch_algo->RemoveMember(victim);
        }
      }
      const double maint_per_leave =
          static_cast<double>(batch_metered.probes() - before_leaves) /
          static_cast<double>(victims.size());
      reporter.Derive(key + "_maint_per_leave", maint_per_leave);
      batch_table.AddRow(
          {std::to_string(n), name, std::to_string(split.members.size()),
           np::util::FormatDouble(qstats.p_exact_closest, 3),
           np::util::FormatDouble(qstats.messages_per_query, 1),
           np::util::FormatDouble(serial_ms, 1),
           np::util::FormatDouble(parallel_ms, 1),
           np::util::FormatDouble(
               parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0, 2),
           np::util::FormatDouble(maint_per_leave, 1)});
    }
  }

  // Headline for the bench-multicore job: aggregate build speedup at
  // the top sweep point (sum of serial walls over sum of parallel).
  if (top_parallel_ms > 0.0) {
    reporter.Derive("speedup_parallel_build",
                    top_serial_ms / top_parallel_ms);
  }
  reporter.Derive("parallel_build_threads",
                  static_cast<double>(np::util::ResolveThreadCount(0)));

  std::cout << "grown overlays (seed + incremental joins):\n";
  np::bench::PrintTable(grown_table);
  std::cout << "batch-built overlays (serial vs parallel one-shot build, "
               "per-leave repair):\n";
  np::bench::PrintTable(batch_table);
  std::cout << "leave-heavy session churn (~n/2 joins, sessions ~200 s):\n";
  np::bench::PrintTable(churn_table);
  np::bench::PrintNote(
      "identical world + schedules per n across algorithms. grown and "
      "batch overlays hold the same member count (~n/2); batch rows time "
      "the serial reference Build against ParallelBuild on all hardware "
      "threads (bit-identical overlay state by the determinism contract: "
      "top-n speedup = speedup_parallel_build, ~1.0 on a 1-core box). "
      "maint/leave is the metered probe bill per departure; oracle/random "
      "are the accuracy ceiling/floor and build/leave for free. n = " +
      std::to_string(top_n) +
      " leave-heavy churn was intractable before indexed membership "
      "(O(overlay) purge scans per leave).");
  reporter.Write();
  return 0;
}
