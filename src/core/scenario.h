// Dynamic-overlay scenario engine.
//
// Drives a churn schedule (any model churn.h can generate: fixed-mix
// or session-mode Poisson with exponential/lognormal/Pareto sessions,
// diurnal arrival waves, explicit traces) over a latency space,
// re-running closest-peer queries against the *live* membership set
// at configurable epochs, with full probe-cost accounting: every
// experiment reports messages/query and maintenance messages per
// churn event alongside the paper's accuracy metrics. This is the
// repo's step from a static-figure reproducer to a workload simulator.
//
// Maintenance accounting: the engine builds (and, for churn-capable
// algorithms, maintains) the overlay through a MeteredSpace, so every
// latency measurement issued by Build/AddMember/RemoveMember is
// counted as a maintenance message — Tiers' join descents and
// representative re-elections included. Algorithms without
// incremental churn support (the hybrids; Tiers with
// TiersConfig::incremental = false) are rebuilt from scratch at every
// epoch whose window saw churn — their (large) rebuild cost is
// charged as maintenance, which is exactly the deployment economics
// the fault-tolerance literature cares about.
//
// Determinism: epoch e's query q derives its RNG and noise streams
// from per-epoch bases xor'ed with q (the PR-1 `base ^ index` idiom),
// churn events use per-event streams (see churn.h), and metrics are
// reduced in query order — results are bit-identical for every thread
// count and for resumed vs straight-through schedules.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/churn.h"
#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "core/probe_counter.h"
#include "core/probe_policy.h"
#include "matrix/generators.h"
#include "util/types.h"

namespace np::core {

/// Fault-injection knobs. All-default means disabled: the engine then
/// takes the exact pre-fault code path and reports are byte-identical
/// to a build without this struct.
struct FaultConfig {
  /// Per-probe loss probability in [0, 1). Probes route through a
  /// FaultySpace keyed like NoisySpace jitter, so loss is
  /// thread-count-invariant and order-robust.
  double loss_rate = 0.0;
  /// Probe attempts before a target is given up (1 = no retry). See
  /// ProbePolicy.
  int max_attempts = 1;
  /// Track per-node load (messages answered per peer) and report
  /// max/median/Gini per epoch plus a whole-run snapshot.
  bool track_load = false;

  /// Correlated partition: during epochs [start_epoch, end_epoch) the
  /// world's clusters are split into disjoint groups and every
  /// inter-group probe is lost (see matrix::PartitionedSpace). Clusters
  /// not named in any group sit in component 0. Requires a clustered
  /// layout; windows must not overlap.
  struct Partition {
    int start_epoch = 0;
    int end_epoch = 0;  // exclusive
    std::vector<std::vector<int>> groups;
  };
  std::vector<Partition> partitions;
  /// Grey failure: grey_node_frac of nodes (chosen deterministically
  /// per run) lose probes touching them at grey_loss_rate per attempt.
  double grey_node_frac = 0.0;
  double grey_loss_rate = 0.0;
  /// Fraction of directed pairs with permanent one-way loss.
  double asymmetric_loss = 0.0;
  /// Suspicion / failure detector (see SuspicionLedger); strikes == 0
  /// disables it.
  SuspicionConfig suspicion{/*strikes=*/0};
};

struct ScenarioConfig {
  /// Initial overlay size drawn from the population; the remainder is
  /// the join pool / query targets.
  NodeId initial_overlay = 800;
  /// Measurement epochs, evenly spaced over the schedule horizon.
  int epochs = 4;
  int queries_per_epoch = 500;
  /// Query-loop workers: 0 = hardware_concurrency. Results are
  /// bit-identical for every thread count (algorithms that are not
  /// ParallelQuerySafe run on one thread regardless).
  int num_threads = 1;
  /// Probe noise (see ExperimentConfig); scoring uses true latencies.
  double measurement_noise_frac = 0.0;
  double measurement_noise_floor_ms = 0.0;
  /// Probe loss / retry / load-ledger knobs; all-default = disabled.
  FaultConfig fault;
  /// > 0 skews query targets by a Zipf law over pool position: target
  /// rank r (0-based position in the current pool) is drawn with
  /// weight 1/(r+1)^s — a few hotspot targets absorb most queries,
  /// stressing the hybrids' directory keys. 0 = uniform (the exact
  /// pre-fault draw).
  double query_zipf_s = 0.0;
  /// Correlated mass-crash: at each entry's time every live member of
  /// the named cluster crashes simultaneously (no notify). Requires a
  /// clustered layout.
  struct Blackout {
    double time_s = 0.0;
    int cluster = 0;
  };
  std::vector<Blackout> blackouts;
  std::uint64_t seed = 1;
};

/// Rejects a workload the engines would reject; both engines and
/// np_run's parser run it before building anything. `population`
/// counts the overlay-eligible nodes (0: not known yet), `num_clusters`
/// the world's clusters (0: no cluster layout).
void ValidateScenarioConfig(const ScenarioConfig& config,
                            std::size_t population, int num_clusters);

/// Accuracy + cost for one measurement epoch.
struct EpochReport {
  int epoch = 0;
  /// Simulated time of the epoch boundary, seconds.
  double time_s = 0.0;
  NodeId live_members = 0;
  /// Churn applied in this epoch's window (64-bit: heavy-churn
  /// schedules at n = 10^5 scale overflow 32-bit tallies).
  std::int64_t joins = 0;
  std::int64_t leaves = 0;
  /// Departures without notice this window (their overlay entries
  /// linger through this epoch's queries; repair runs next window).
  std::int64_t crashes = 0;
  std::int64_t skipped_events = 0;
  /// True when the algorithm was rebuilt from scratch this epoch (the
  /// no-incremental-churn path).
  bool rebuilt = false;

  double p_exact_closest = 0.0;
  /// Clustered worlds only (0 otherwise).
  double p_correct_cluster = 0.0;
  double p_same_net = 0.0;
  double mean_found_latency_ms = 0.0;
  double mean_hops = 0.0;
  /// Tail quality: percentiles of (found latency − true closest
  /// latency) over this epoch's queries, ms. 0 on exact answers, so
  /// p50 = 0 means a majority-exact epoch while p99 exposes the tail
  /// the means hide (what the diurnal / heavy-tail scenarios stress).
  double excess_latency_p50_ms = 0.0;
  double excess_latency_p95_ms = 0.0;
  double excess_latency_p99_ms = 0.0;

  /// Mean query-time messages per query in this epoch.
  double messages_per_query = 0.0;
  /// Maintenance messages spent in this epoch's window (churn
  /// handling, crash repairs + rebuilds).
  std::uint64_t maintenance_messages = 0;
  /// maintenance_messages / (joins + leaves + crashes); 0 when no
  /// churn fired.
  double maintenance_per_event = 0.0;

  // Fault-mode metrics; all stay zero when fault injection is off.
  /// Fraction of this epoch's queries that found no reachable peer
  /// (every probe path gave up). Failed queries count as not-exact and
  /// are excluded from the latency/hops aggregates.
  double p_query_failed = 0.0;
  /// Probes billed but lost this epoch (maintenance + queries).
  std::uint64_t failed_probes = 0;
  /// Retry attempts issued by the probe policy this epoch.
  std::uint64_t retries = 0;

  // Partition-mode metrics (matrix::PartitionSchedule::Any()).
  /// P(found the nearest *reachable* peer): during a partition the
  /// truth is restricted to the target's component, and a query with
  /// no reachable member is scored correct iff it honestly failed.
  /// Equals p_exact_closest in epochs with no active window.
  double p_exact_reachable = 0.0;
  /// Per-component accuracy/load split; populated only in epochs with
  /// an active partition window.
  struct ComponentStats {
    int component = 0;
    NodeId members = 0;
    std::int64_t queries = 0;
    std::int64_t failed_queries = 0;
    /// Load Gini across this component's members (track_load only).
    double load_gini = 0.0;

    bool operator==(const ComponentStats&) const = default;
  };
  std::vector<ComponentStats> components;

  // Suspicion-mode metrics (FaultConfig::suspicion enabled).
  /// Peers quarantined at this epoch's window end (queries see exactly
  /// this set).
  std::uint64_t quarantined_peers = 0;
  /// Probes skipped for free against quarantined peers this epoch.
  std::uint64_t suspicion_skips = 0;
  /// Billed probation re-probes issued this epoch.
  std::uint64_t probation_probes = 0;

  // Per-node load over this epoch's window + queries, across live
  // members; only populated under FaultConfig::track_load.
  std::uint64_t load_max = 0;
  double load_median = 0.0;
  double load_gini = 0.0;

  bool operator==(const EpochReport&) const = default;
};

struct ScenarioReport {
  std::string algorithm;
  bool clustered = false;
  /// Messages spent by the initial Build (paid once, reported apart
  /// from steady-state maintenance).
  std::uint64_t build_messages = 0;
  NodeId initial_members = 0;
  NodeId final_members = 0;
  std::vector<EpochReport> epochs;
  /// Whole-run ledger (build + maintenance + queries).
  ProbeCounter::Snapshot totals;
  /// Whole-run aggregates (same definitions as the epoch fields).
  double messages_per_query = 0.0;
  double maintenance_per_event = 0.0;

  /// True when any fault axis was active for this run (probe loss,
  /// retries, crash events or blackouts); gates the fault fields in
  /// report serialization so disabled runs stay byte-identical.
  bool fault_mode = false;
  /// True when the per-node load ledger ran.
  bool load_tracking = false;
  /// True when a correlated pathology (partition windows, grey nodes,
  /// asymmetric loss) was configured; gates the partition fields in
  /// report serialization.
  bool partition_mode = false;
  /// True when the suspicion ledger ran; gates its fields likewise.
  bool suspicion_mode = false;
  /// Queries that found no reachable peer, whole run.
  std::uint64_t failed_queries = 0;
  /// Whole-run per-node load over final members (post-build traffic:
  /// maintenance + queries), under load_tracking.
  PerNodeSnapshot load;

  bool operator==(const ScenarioReport&) const = default;
};

/// Runs `algo` through `schedule` over `space`. `layout` enables the
/// clustered accuracy metrics and may be null (generic spaces).
/// `population` restricts overlay/pool nodes to a subset of the space
/// (e.g. the Azureus peers of a synthetic topology); empty means every
/// node. The algorithm's probe counter is attached for the duration of
/// the run and detached before returning.
ScenarioReport RunScenario(const LatencySpace& space,
                           const matrix::ClusterLayout* layout,
                           NearestPeerAlgorithm& algo,
                           const ChurnSchedule& schedule,
                           const ScenarioConfig& config,
                           const std::vector<NodeId>& population = {});

}  // namespace np::core
