// The benchmark's workloads: inputs generated from one seed, run
// through the simulator's public entry points (SpaceFactory,
// ChurnSchedule::Poisson, RunScenario, RunServing).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/churn.h"
#include "core/nearest_algorithm.h"
#include "core/scenario.h"
#include "core/serving.h"
#include "core/space_factory.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// Exactly one world is used: sparse when `sparse_world`.
  bool sparse_world = false;
  np::matrix::EmbeddedSpaceConfig embedded;
  np::matrix::SparseTopologyConfig sparse;
  np::core::ChurnScheduleConfig churn;
  np::core::ScenarioConfig scenario;
  /// RunServing (one reader thread) instead of RunScenario.
  bool serving = false;
  std::vector<std::string> algorithms;
};

/// Names accepted by MakeWorkload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// The named workload with every seed (world, churn schedule, engine)
/// derived from `seed`. Throws np::util::Error on an unknown name.
Workload MakeWorkload(const std::string& name, std::uint64_t seed);

/// The world of `workload`.
np::core::SpaceFactory MakeWorld(const Workload& workload);

/// Algorithms that run on embedded and sparse worlds (the §5 hybrids
/// need a router-level topology and are not benchmarked).
const std::vector<std::string>& AlgorithmNames();
std::unique_ptr<np::core::NearestPeerAlgorithm> MakeAlgorithm(
    const std::string& name);

/// Deterministic text form of a report: every field of the
/// ScenarioReport, plus the serving-only deterministic fields when
/// `serving` is non-null. Wall-clock fields are left out, so two runs
/// of the same inputs give the same text.
std::string CanonicalReport(const np::core::ScenarioReport& report,
                            const np::core::ServingReport* serving);

}  // namespace perfbench
