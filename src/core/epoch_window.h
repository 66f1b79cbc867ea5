// The pieces EngineSetup (core/engine_setup) assembles for the
// scenario and serving engines: the partition schedule and the scoped
// probe-policy attachment. The population split is
// SplitNodes (core/experiment); the per-epoch churn window itself is
// EngineSetup::RunWindow.
#pragma once

#include <cstdint>
#include <vector>

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

/// Rejects partition windows BuildPartitionSchedule cannot resolve over
/// `num_clusters` clusters (0: the world has no cluster layout);
/// BuildPartitionSchedule calls this.
void ValidatePartitions(const std::vector<FaultConfig::Partition>& partitions,
                        int num_clusters);

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

/// Detaches the algorithm's probe policy on every exit path — the
/// policy is a stack local in the engines, and leaving it attached
/// past a thrown NP_ENSURE would hand the caller an algorithm holding
/// a dangling pointer.
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

}  // namespace np::core
