// The probe decorator chain, built in one place.
//
// Every probe an engine issues — maintenance (build, churn, repairs,
// rebuilds) and query alike — travels Noisy -> Partitioned -> Faulty
// -> Metered -> backend. ProbeStack is the only code that assembles
// that chain, so the decorator order and the seed each layer takes are
// fixed here and nowhere else.
//
// The partition layer is present only when the schedule configures a
// pathology (PartitionSchedule::Any()). That is exact: an empty
// schedule makes PartitionedSpace forward every probe verbatim. The
// stack lives in place (no heap, no copies). A query worker builds one
// stack per batch and Reseed()s it before each query, which puts it in
// exactly the state of a fresh stack with those seeds while keeping the
// layers' pair trackers, so a query allocates nothing here once the
// trackers have grown to the worker's largest query.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>

#include "core/latency_space.h"
#include "core/probe_counter.h"
#include "matrix/faulty_space.h"
#include "matrix/partitioned_space.h"
#include "util/types.h"

namespace np::core {

/// Seeds of the three stateful layers.
struct ProbeSeeds {
  std::uint64_t noise = 0;
  std::uint64_t partition = 0;
  std::uint64_t fault = 0;
};

/// What the stack injects; all-default is a clean, lossless view.
struct ProbeFaults {
  double noise_frac = 0.0;
  double noise_floor_ms = 0.0;
  double loss_rate = 0.0;
  /// Nullable: correlated-fault plan; borrowed, must outlive the stack.
  const matrix::PartitionSchedule* partition = nullptr;
};

class ProbeStack {
 public:
  /// `crashed` (the dead-peer set) and `ledger` (per-node load) are
  /// nullable borrowed views.
  ProbeStack(const LatencySpace& backend, const ProbeFaults& faults,
             const ProbeSeeds& seeds,
             const std::unordered_set<NodeId>* crashed = nullptr,
             PerNodeLedger* ledger = nullptr);
  ProbeStack(const ProbeStack&) = delete;
  ProbeStack& operator=(const ProbeStack&) = delete;

  /// The top of the chain: the view algorithms probe through.
  const MeteredSpace& metered() const { return metered_; }
  /// The partition layer, or nullptr when the schedule is empty.
  matrix::PartitionedSpace* partition() {
    return partitioned_ ? &*partitioned_ : nullptr;
  }
  /// Restarts the three stateful layers at `seeds` and zeroes the
  /// meter: the stack then probes exactly as a fresh one built with
  /// the same backend, faults, crashed set, ledger and epoch.
  void Reseed(const ProbeSeeds& seeds);
  /// Re-points the fault layer's crashed-set view.
  void set_crashed(const std::unordered_set<NodeId>* crashed) {
    faulty_.set_crashed(crashed);
  }

 private:
  NoisySpace noisy_;
  std::optional<matrix::PartitionedSpace> partitioned_;
  matrix::FaultySpace faulty_;
  MeteredSpace metered_;
};

}  // namespace np::core
