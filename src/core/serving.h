// Concurrent serving mode: snapshot queries racing churn.
//
// The deterministic scenario engine interleaves churn and queries in
// one loop, so its results say nothing about throughput or tail
// latency under live membership change. RunServing runs the same
// workload service-shaped: a single writer thread applies each epoch's
// churn window to the live overlay and publishes an immutable snapshot
// (a deep clone of the algorithm plus the membership it answers
// against) at the boundary, while N reader threads answer the epoch's
// queries against their pinned snapshot — concurrently with the writer
// mutating the live overlay toward the next epoch. Writer and readers
// meet once per epoch, under one mutex; a query takes no lock.
//
// Failure: an exception on the writer or on any reader wakes every
// waiter; RunServing joins the readers and throws util::Error naming
// the side that failed first.
//
// Determinism contract: every per-query stream is the same pure
// function of (seed, epoch, query index) the scenario engine uses, the
// snapshot is a deep clone of exactly the state serial replay queries
// at that epoch, and outcomes are reduced serially in query order — so
// the ScenarioReport embedded in a ServingReport is field-for-field
// identical to RunScenario on the same inputs, for every reader
// count. That equivalence is the serving mode's correctness oracle
// (CI-asserted); only the wall-clock metrics (qps, latency
// percentiles) vary run to run.
//
// Staleness: while snapshot k serves, the live membership is already
// churning toward epoch k+1 — the regime where stale routing state
// concentrates load. Each epoch's answers are additionally scored
// against the epoch-(k+1) membership: p_exact_live (still the true
// closest among the peers live when the answer arrives) and
// p_found_departed (the returned peer already left). Both are
// deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "core/churn.h"
#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "core/scenario.h"
#include "matrix/generators.h"
#include "util/types.h"

namespace np::core {

struct ServingConfig {
  /// The workload; serving adds no knobs to it. track_load must stay
  /// off (per-node attribution of racing probes is not deterministic)
  /// and num_threads keeps its build-parallelism meaning.
  ScenarioConfig scenario;
  /// Query threads racing the churn writer. > 1 requires the
  /// algorithm to be ParallelQuerySafe.
  int reader_threads = 1;
};

/// Deterministic staleness of one epoch's answers, scored against the
/// membership live while the snapshot served (= the next epoch's
/// membership; the final epoch scores against itself).
struct StalenessReport {
  int epoch = 0;
  /// Answer is still the true closest among next-epoch members (same
  /// tie epsilon as p_exact_closest). Failed queries count as stale.
  double p_exact_live = 0.0;
  /// The returned peer is no longer a member one epoch later.
  double p_found_departed = 0.0;
};

struct ServingReport {
  /// Deterministic block: field-for-field identical to what
  /// RunScenario produces for config.scenario (the replay oracle).
  ScenarioReport scenario;
  /// Per-epoch staleness (deterministic).
  std::vector<StalenessReport> staleness;
  int reader_threads = 1;
  std::size_t snapshots_published = 0;

  // Wall-clock / scheduling-dependent metrics (vary run to run; never
  // gated on exact values).

  /// Max superseded-but-alive snapshots observed after any publish.
  /// The pin rendezvous bounds it at 1, but the value observed depends
  /// on when readers drop pins relative to publish.
  std::size_t max_retired_alive = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double query_latency_p50_us = 0.0;
  double query_latency_p99_us = 0.0;
};

/// Runs `algo` through `schedule` in serving mode. Same contract as
/// RunScenario (layout nullable, population optional) plus: the
/// algorithm must support snapshots, and reader_threads > 1 requires
/// ParallelQuerySafe. The algorithm ends in its final post-churn
/// state, exactly as after RunScenario.
ServingReport RunServing(const LatencySpace& space,
                         const matrix::ClusterLayout* layout,
                         NearestPeerAlgorithm& algo,
                         const ChurnSchedule& schedule,
                         const ServingConfig& config,
                         const std::vector<NodeId>& population = {});

/// Exact field-for-field equality of two scenario reports (the
/// defaulted ScenarioReport::operator==) — the serving-vs-replay
/// equivalence assertion. Doubles are compared
/// with ==: the contract is bit-identity, not tolerance.
bool ScenarioReportsIdentical(const ScenarioReport& a,
                              const ScenarioReport& b);

}  // namespace np::core
