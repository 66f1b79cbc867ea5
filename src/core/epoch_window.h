// The pieces EngineSetup (core/engine_setup) assembles for the
// scenario and serving engines: the population split, the partition
// schedule, the scoped probe-counter/policy attachments, and the
// per-epoch churn window.
//
// The serving engine's correctness oracle is bit-identical agreement
// with serial replay, and the maintenance side of that equation —
// pending crash repairs, blackout ordering, churn application, the
// rebuild path, and the probe billing around them — is exactly the
// code that must not fork into two copies. ChurnWindowRunner is that
// code; EngineSetup owns the one instance an engine drives, one epoch
// at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "core/churn.h"
#include "core/experiment.h"
#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "core/probe_counter.h"
#include "core/probe_policy.h"
#include "core/scenario.h"
#include "matrix/generators.h"
#include "matrix/partitioned_space.h"
#include "util/rng.h"
#include "util/types.h"

namespace np::core {

/// Splits `population` (or, when empty, the whole space) into the
/// initial overlay membership and the join-pool/query-target rest.
OverlaySplit SplitScenarioPopulation(const LatencySpace& space,
                                     const std::vector<NodeId>& population,
                                     NodeId initial_overlay, util::Rng& rng);

/// Resolves FaultConfig's cluster-group partition windows, grey-node
/// and asymmetric-loss knobs into the per-node PartitionSchedule the
/// PartitionedSpace decorators consume. Validates window sanity (no
/// overlap, start < end) and that partitions only appear on clustered
/// worlds. `fault_root` seeds the schedule-level grey/asym membership
/// draws; EngineSetup derives it once for both engines, which is what
/// makes scenario and serving replays agree.
matrix::PartitionSchedule BuildPartitionSchedule(
    const FaultConfig& fault, const matrix::ClusterLayout* layout,
    NodeId space_size, std::uint64_t fault_root);

/// Detaches the algorithm's probe counter on every exit path — the
/// counter is a stack local in the engines, and leaving it attached
/// past a thrown NP_ENSURE would hand the caller an algorithm holding
/// a dangling pointer.
class ScopedProbeCounter {
 public:
  ScopedProbeCounter(NearestPeerAlgorithm& algo, ProbeCounter& counter)
      : algo_(algo) {
    algo_.AttachProbeCounter(&counter);
  }
  ~ScopedProbeCounter() { algo_.AttachProbeCounter(nullptr); }
  ScopedProbeCounter(const ScopedProbeCounter&) = delete;
  ScopedProbeCounter& operator=(const ScopedProbeCounter&) = delete;

 private:
  NearestPeerAlgorithm& algo_;
};

/// Same exit-path guarantee for the probe policy (also a stack local).
class ScopedProbePolicy {
 public:
  ScopedProbePolicy(NearestPeerAlgorithm& algo, const ProbePolicy& policy)
      : algo_(algo) {
    algo_.AttachProbePolicy(&policy);
  }
  ~ScopedProbePolicy() { algo_.AttachProbePolicy(nullptr); }
  ScopedProbePolicy(const ScopedProbePolicy&) = delete;
  ScopedProbePolicy& operator=(const ScopedProbePolicy&) = delete;

 private:
  NearestPeerAlgorithm& algo_;
};

/// Correlated-fault hooks threaded through the churn window, all
/// nullable/optional. Both engines pass the same hooks, so the
/// partition clock, suspicion recording, and probation/heal repair stay
/// replay-identical by construction.
struct WindowFaultHooks {
  /// Maintenance-stack partition decorator; its epoch clock is advanced
  /// at each window start (serial).
  matrix::PartitionedSpace* partition = nullptr;
  /// Failure-detector ledger; recording is enabled only inside the
  /// serial window (never while query threads run), and probation
  /// re-probes drain here with billed maintenance traffic.
  SuspicionLedger* suspicion = nullptr;
  /// Policy used for probation re-probes (the engine's policy).
  const ProbePolicy* policy = nullptr;
  /// Seed root for the post-release rejoin-refresh rng streams.
  std::uint64_t rejoin_root = 0;
};

/// One epoch's churn window: crash repairs pending from the previous
/// window, probation re-probes of quarantined peers (heal repair),
/// blackouts due by the boundary, scheduled churn, the
/// no-incremental-churn rebuild path, and the maintenance billing
/// around all of it. Stateful across epochs (blackout cursor, charged
/// maintenance watermark); drive it with consecutive epoch indices.
class ChurnWindowRunner {
 public:
  /// Borrows everything; the caller keeps all of it alive for the
  /// runner's lifetime. `charged_build` is the build-probe watermark
  /// already on `maint` (maintenance deltas are billed above it).
  ChurnWindowRunner(NearestPeerAlgorithm& algo, ChurnDriver& driver,
                    const ChurnSchedule& schedule,
                    const matrix::ClusterLayout* layout,
                    const MeteredSpace& maint, ProbeCounter& counter,
                    std::vector<ScenarioConfig::Blackout> blackouts,
                    std::uint64_t rebuild_root, int build_threads,
                    int total_epochs, bool incremental,
                    std::uint64_t charged_build,
                    WindowFaultHooks hooks = {});

  /// Applies epoch `epoch`'s window and fills the churn/maintenance
  /// fields of `er` (epoch, time_s, joins/leaves/crashes/skipped,
  /// rebuilt, maintenance, live_members, quarantined_peers).
  void RunWindow(int epoch, EpochReport& er);

 private:
  /// Probation re-probes for quarantined peers due this epoch; a
  /// success releases the peer and (for incremental overlays) refreshes
  /// its entries with a billed leave+rejoin.
  void DrainProbation(int epoch);

  NearestPeerAlgorithm& algo_;
  ChurnDriver& driver_;
  const ChurnSchedule& schedule_;
  const matrix::ClusterLayout* layout_;
  const MeteredSpace& maint_;
  ProbeCounter& counter_;
  std::vector<ScenarioConfig::Blackout> blackouts_;
  std::size_t next_blackout_ = 0;
  const std::uint64_t rebuild_root_;
  const int build_threads_;
  const int total_epochs_;
  const bool incremental_;
  std::uint64_t charged_maintenance_;
  WindowFaultHooks hooks_;
};

}  // namespace np::core
