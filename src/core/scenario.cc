#include "core/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "core/epoch_window.h"
#include "core/experiment.h"
#include "core/probe_policy.h"
#include "core/query_batch.h"
#include "matrix/faulty_space.h"
#include "matrix/partitioned_space.h"
#include "util/contract.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace np::core {

ScenarioReport RunScenario(const LatencySpace& space,
                           const matrix::ClusterLayout* layout,
                           NearestPeerAlgorithm& algo,
                           const ChurnSchedule& schedule,
                           const ScenarioConfig& config,
                           const std::vector<NodeId>& population) {
  NP_REPORT_AFFECTING();
  NP_ENSURE(config.epochs >= 1, "need at least one epoch");
  NP_ENSURE(config.queries_per_epoch >= 1, "need queries per epoch");
  NP_ENSURE(config.query_zipf_s >= 0.0, "zipf exponent must be >= 0");
  NP_ENSURE(config.blackouts.empty() || layout != nullptr,
            "blackouts need a clustered layout");

  util::Rng rng(util::Mix64(config.seed));
  OverlaySplit split =
      SplitScenarioPopulation(space, population, config.initial_overlay, rng);

  // Fault streams derive straight from config.seed, NOT from the
  // engine rng: enabling faults must not shift any draw of the
  // pre-existing streams (noise/query/rebuild), or disabled-fault runs
  // would stop being byte-identical to pre-fault builds.
  const std::uint64_t fault_root = util::Mix64(config.seed ^ 0xFA177ULL);

  // Every maintenance-time measurement (build, joins, leaves, crash
  // repairs, epoch rebuilds) flows through this metered, faulty, noisy
  // view; the engine reads probe deltas off it to charge the ledger.
  // Maintenance is applied serially, so the single meter is race-free;
  // query probes go through per-query meters instead.
  const NoisySpace maint_noisy(space, config.measurement_noise_frac, rng(),
                               config.measurement_noise_floor_ms);
  // Correlated faults (partitions / grey nodes / one-way links) sit
  // between noise and i.i.d. loss. An empty schedule forwards verbatim,
  // so pre-partition runs stay byte-identical.
  const matrix::PartitionSchedule partition_schedule = BuildPartitionSchedule(
      config.fault, layout, space.size(), fault_root);
  matrix::PartitionedSpace maint_part(maint_noisy, partition_schedule,
                                      util::Mix64(fault_root ^ 0x6));
  matrix::FaultySpace maint_faulty(maint_part, config.fault.loss_rate,
                                   util::Mix64(fault_root ^ 0x1));
  const bool track_load = config.fault.track_load;
  PerNodeLedger ledger(track_load ? static_cast<std::size_t>(space.size())
                                  : 0);
  PerNodeLedger* const ledger_ptr = track_load ? &ledger : nullptr;
  const MeteredSpace maint(maint_faulty, ledger_ptr);

  ProbeCounter counter;
  const ScopedProbeCounter attach(algo, counter);
  const bool suspicion_mode = config.fault.suspicion.Enabled();
  SuspicionLedger suspicion(config.fault.suspicion);
  const ProbePolicy policy(ProbePolicyConfig{config.fault.max_attempts},
                           &counter, suspicion_mode ? &suspicion : nullptr);
  const ScopedProbePolicy attach_policy(algo, policy);

  ScenarioReport report;
  report.algorithm = algo.name();
  report.clustered = layout != nullptr;
  report.initial_members = static_cast<NodeId>(split.members.size());

  // Builds (and epoch rebuilds below) run through ParallelBuild:
  // bit-identical to the serial Build by contract, so the report is
  // unchanged — only the wall clock moves. Noisy or lossy maintenance
  // views are stateful (per-pair counters), so they clamp to one
  // thread.
  const bool noisy_maintenance = config.measurement_noise_frac > 0.0 ||
                                 config.measurement_noise_floor_ms > 0.0 ||
                                 config.fault.loss_rate > 0.0 ||
                                 partition_schedule.GreyActive();
  const int build_threads = noisy_maintenance ? 1 : config.num_threads;
  algo.ParallelBuild(maint, split.members, rng, build_threads);
  report.build_messages = maint.probes();
  counter.AddBuildProbes(report.build_messages);
  if (track_load) {
    // Epoch load snapshots measure steady-state traffic; the one-time
    // build storm would drown them out.
    ledger.Reset();
  }

  const bool incremental = algo.SupportsChurn();
  ChurnDriver driver(incremental ? &algo : nullptr, split.members,
                     split.targets, rng());
  // The crashed set is driver-owned and only grows during the serial
  // churn/blackout phases, so pointing the (already-built-over) faulty
  // views at it is race-free.
  maint_faulty.set_crashed(&driver.crashed());
  const std::uint64_t noise_root = rng();
  const std::uint64_t query_root = rng();
  const std::uint64_t rebuild_root = rng();
  const std::uint64_t query_fault_root = util::Mix64(fault_root ^ 0x2);

  bool has_crash_events = !config.blackouts.empty();
  for (const ChurnEvent& event : schedule.events()) {
    if (event.type == ChurnEventType::kCrash) {
      has_crash_events = true;
      break;
    }
  }
  report.partition_mode = partition_schedule.Any();
  report.suspicion_mode = suspicion_mode;
  report.fault_mode = config.fault.loss_rate > 0.0 ||
                      config.fault.max_attempts > 1 || has_crash_events ||
                      report.partition_mode || suspicion_mode;
  report.load_tracking = track_load;

  const int query_threads = algo.ParallelQuerySafe()
                                ? util::ResolveThreadCount(config.num_threads)
                                : 1;

  WindowFaultHooks hooks;
  hooks.partition = report.partition_mode ? &maint_part : nullptr;
  hooks.suspicion = suspicion_mode ? &suspicion : nullptr;
  hooks.policy = &policy;
  hooks.rejoin_root = util::Mix64(fault_root ^ 0x3);
  ChurnWindowRunner windows(algo, driver, schedule, layout, maint, counter,
                            config.blackouts, rebuild_root, build_threads,
                            config.epochs, incremental,
                            report.build_messages, hooks);

  std::uint64_t charged_failed = 0;
  std::uint64_t charged_retries = 0;
  std::uint64_t charged_skips = 0;
  std::uint64_t charged_probation = 0;
  const std::uint64_t partition_root = util::Mix64(fault_root ^ 0x7);
  std::vector<std::uint64_t> ledger_prev;
  if (track_load) {
    ledger_prev = ledger.Counts();
  }
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    EpochReport er;

    // --- Churn window -----------------------------------------------------
    windows.RunWindow(epoch, er);

    // --- Measurement epoch ------------------------------------------------
    const std::vector<NodeId>& members = driver.members();
    const std::vector<NodeId>& pool = driver.pool();
    NP_ENSURE(!pool.empty(), "no query targets left outside the overlay");
    // Zipf hotspot targets: rank = position in the (deterministically
    // evolved) pool vector. Rebuilt per epoch since the pool changes.
    std::vector<double> zipf_cdf;
    if (config.query_zipf_s > 0.0) {
      zipf_cdf = ZipfCdf(pool.size(), config.query_zipf_s);
    }

    QueryBatch batch;
    batch.space = &space;
    batch.layout = layout;
    batch.members = &members;
    batch.pool = &pool;
    batch.crashed = &driver.crashed();
    batch.zipf_cdf = &zipf_cdf;
    batch.ledger = ledger_ptr;
    batch.noise_frac = config.measurement_noise_frac;
    batch.noise_floor_ms = config.measurement_noise_floor_ms;
    batch.loss_rate = config.fault.loss_rate;
    batch.tie_epsilon_ms = config.tie_epsilon_ms;
    batch.fault_mode = report.fault_mode;
    if (report.partition_mode) {
      batch.partition = &partition_schedule;
      batch.active_window = partition_schedule.WindowFor(epoch);
      batch.epoch = epoch;
      batch.partition_base =
          util::Mix64(partition_root ^ static_cast<std::uint64_t>(epoch));
    }
    batch.query_base =
        util::Mix64(query_root ^ static_cast<std::uint64_t>(epoch));
    batch.noise_base =
        util::Mix64(noise_root ^ static_cast<std::uint64_t>(epoch));
    batch.fault_base =
        util::Mix64(query_fault_root ^ static_cast<std::uint64_t>(epoch));

    std::vector<QueryOutcome> outcomes(
        static_cast<std::size_t>(config.queries_per_epoch));
    // One contiguous chunk per worker, each with a fresh truth memo of
    // its own: the same split and chunk loop serving readers run.
    const auto workers = static_cast<std::size_t>(query_threads);
    const std::size_t chunks = std::min(workers, outcomes.size());
    std::vector<TruthMemo> memos(chunks);
    util::ParallelFor(0, chunks, query_threads, [&](std::size_t c) {
      RunQueryChunk(batch, algo, c, chunks, memos[c], outcomes);
    });

    ReduceQueryOutcomes(outcomes, er, &report.failed_queries);
    if (batch.active_window != nullptr) {
      er.components = SplitByComponent(outcomes, members, *batch.active_window);
    }

    const ProbeCounter::Snapshot fault_snap = counter.Read();
    er.failed_probes = fault_snap.failed_probes - charged_failed;
    er.retries = fault_snap.retries - charged_retries;
    charged_failed = fault_snap.failed_probes;
    charged_retries = fault_snap.retries;
    er.suspicion_skips = fault_snap.suspicion_skips - charged_skips;
    er.probation_probes = fault_snap.probation_probes - charged_probation;
    charged_skips = fault_snap.suspicion_skips;
    charged_probation = fault_snap.probation_probes;

    if (track_load) {
      std::vector<std::uint64_t> now = ledger.Counts();
      const PerNodeSnapshot snap =
          PerNodeSnapshot::Over(now, &ledger_prev, driver.members());
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

  report.final_members = static_cast<NodeId>(driver.members().size());
  report.totals = counter.Read();
  report.messages_per_query = report.totals.MessagesPerQuery();
  report.maintenance_per_event = report.totals.MaintenancePerEvent();
  if (track_load) {
    report.load =
        PerNodeSnapshot::Over(ledger.Counts(), nullptr, driver.members());
  }
  return report;
}

}  // namespace np::core
