// Everything the scenario and serving engines build before epoch 0.
//
// The serving engine's correctness oracle is bit-identical agreement
// with serial RunScenario replay, so both engines must draw every
// stream in the same order from the same roots. EngineSetup is that
// setup, written once: validation, the population split, the
// maintenance probe stack, the initial build, the churn driver, the
// per-epoch stream roots, the fault plumbing (partition schedule,
// suspicion ledger, probe policy) and the per-epoch churn window. Draw
// order from the engine rng: split -> maintenance noise seed -> build
// -> driver seed -> noise, query and rebuild roots. Fault streams
// derive from the seed directly, never from the engine rng, so turning
// faults on shifts no other stream.
//
// The churn window is the maintenance side of the replay equation:
// pending crash repairs, blackout ordering, churn application, the
// rebuild path and the probe billing around them must not fork into
// two copies, so both engines drive this one, an epoch at a time.
//
// What is left to each engine is how it runs an epoch's queries:
// RunScenario in-line on worker threads, RunServing on reader threads
// against published snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/churn.h"
#include "core/epoch_window.h"
#include "core/experiment.h"
#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "core/probe_counter.h"
#include "core/probe_policy.h"
#include "core/probe_stack.h"
#include "core/query_batch.h"
#include "core/scenario.h"
#include "matrix/generators.h"
#include "matrix/partitioned_space.h"
#include "util/rng.h"
#include "util/types.h"

namespace np::core {

/// The four fault tallies an epoch reports (failed probes, retries,
/// suspicion skips, probation probes).
struct FaultDeltas {
  std::uint64_t failed_probes = 0;
  std::uint64_t retries = 0;
  std::uint64_t suspicion_skips = 0;
  std::uint64_t probation_probes = 0;

  /// Tallies accrued between two reads of one counter.
  static FaultDeltas Between(const ProbeCounter::Snapshot& from,
                             const ProbeCounter::Snapshot& to);
  /// Adds these tallies to the epoch's fault fields.
  void AddTo(EpochReport& er) const;
};

class EngineSetup {
 public:
  /// Validates the workload, splits the population, builds the overlay
  /// through the maintenance stack and arms the churn windows. The
  /// engine's probe policy stays attached to `algo` until the setup is
  /// destroyed. Borrows every argument.
  EngineSetup(const LatencySpace& space, const matrix::ClusterLayout* layout,
              NearestPeerAlgorithm& algo, const ChurnSchedule& schedule,
              const ScenarioConfig& config,
              const std::vector<NodeId>& population);
  EngineSetup(const EngineSetup&) = delete;
  EngineSetup& operator=(const EngineSetup&) = delete;

  /// The report header: algorithm, clustered, build_messages,
  /// initial_members and the four mode flags.
  const ScenarioReport& header() const { return header_; }

  /// Applies epoch `epoch`'s churn window: crash repairs pending from
  /// the previous window, probation re-probes of quarantined peers
  /// (heal repair), blackouts due by the boundary, scheduled churn, the
  /// no-incremental-churn rebuild path, and the maintenance billing
  /// around all of it. Fills the churn/maintenance fields of `er`
  /// (epoch, time_s, joins/leaves/crashes/skipped, rebuilt,
  /// maintenance, live_members, quarantined_peers). Stateful across
  /// epochs (blackout cursor, charged maintenance watermark); call it
  /// with consecutive epoch indices.
  void RunWindow(int epoch, EpochReport& er);

  /// Zipf target CDF over `pool`; empty (the uniform draw) at zipf 0.
  std::vector<double> TargetCdf(const std::vector<NodeId>& pool) const;

  /// Epoch `epoch`'s query batch over the given views, all borrowed.
  QueryBatch Batch(int epoch, const std::vector<NodeId>& members,
                   const std::vector<NodeId>& pool,
                   const std::unordered_set<NodeId>& crashed,
                   const std::vector<double>& zipf_cdf);

  /// Fault tallies on the engine counter since the previous call.
  FaultDeltas TakeFaultDeltas();

  /// Fills the whole-run fields: final_members, totals, the two
  /// aggregates and, under track_load, the load snapshot.
  void Finish(ScenarioReport& report) const;

  ChurnDriver& driver() { return *driver_; }
  ProbeCounter& counter() { return counter_; }
  const SuspicionLedger& suspicion() const { return suspicion_; }
  /// Per-node load ledger; empty unless track_load.
  PerNodeLedger& ledger() { return ledger_; }

 private:
  /// Probation re-probes for quarantined peers due this epoch; a
  /// success releases the peer and (for incremental overlays) refreshes
  /// its entries with a billed leave+rejoin.
  void DrainProbation(int epoch);

  const LatencySpace& space_;
  const matrix::ClusterLayout* layout_;
  NearestPeerAlgorithm& algo_;
  const ChurnSchedule& schedule_;
  const ScenarioConfig& config_;
  util::Rng rng_;
  /// Moved into the churn driver once the overlay is built.
  OverlaySplit split_;
  const std::uint64_t fault_root_;
  const matrix::PartitionSchedule partition_schedule_;
  PerNodeLedger ledger_;
  /// Every maintenance-time probe (build, joins, leaves, repairs,
  /// rebuilds) flows through this stack; maintenance is serial, so its
  /// one meter is race-free.
  ProbeStack maint_;
  ProbeCounter counter_;
  SuspicionLedger suspicion_;
  const ProbePolicy policy_;
  const ScopedProbePolicy attach_policy_;
  ScenarioReport header_;
  std::optional<ChurnDriver> driver_;
  std::uint64_t noise_root_ = 0;
  std::uint64_t query_root_ = 0;
  std::uint64_t query_fault_root_ = 0;
  std::uint64_t partition_root_ = 0;
  std::uint64_t rebuild_root_ = 0;
  /// Seed root for the post-release rejoin-refresh rng streams.
  std::uint64_t rejoin_root_ = 0;
  int build_threads_ = 1;
  bool incremental_ = false;
  /// config.blackouts in time order, and the next one not yet applied.
  std::vector<ScenarioConfig::Blackout> blackouts_;
  std::size_t next_blackout_ = 0;
  /// Maintenance probes already billed (build, then earlier windows);
  /// each window bills the delta above it.
  std::uint64_t charged_maintenance_ = 0;
  ProbeCounter::Snapshot charged_;
};

}  // namespace np::core
