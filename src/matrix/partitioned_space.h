// Correlated-fault decorator for latency spaces: network partitions,
// one-way (asymmetric) link loss, and per-node grey failure.
//
// FaultySpace models i.i.d. probe loss and crashed peers; real outages
// are correlated. PartitionedSpace layers the three correlated
// pathologies the fault literature cares about on top of any inner
// space (it composes with FaultySpace: Noisy -> Partitioned -> Faulty
// -> Metered):
//
//   1. Partitions: a PartitionSchedule splits the node population into
//      components over epoch windows [start_epoch, end_epoch). While a
//      window is active, every inter-component probe is lost — both
//      directions, every attempt, no retry luck. The split is a pure
//      function of the schedule, so it is identical across threads and
//      across per-query decorator instances.
//   2. Asymmetric loss: a deterministic fraction of *directed* pairs
//      (a -> b) is permanently dead while b -> a still answers — the
//      one-way-link grey failure BGP operators know. Membership in the
//      bad set is keyed off the schedule-level asym_seed, never the
//      per-instance seed, so every decorator instance of a run agrees
//      on which directed links are broken.
//   3. Grey nodes: a deterministic node_frac of nodes (keyed off the
//      schedule-level grey_seed) lose probes touching them at
//      grey loss_rate per attempt. Unlike 1 and 2 this is re-rolled per
//      attempt with FaultySpace's per-pair attempt stream (the same
//      util::PairStream generation flush), so retries can get through —
//      that is what makes it "grey" rather than dead.
//
// Thread-safety mirrors FaultySpace: with grey failure active the
// per-pair attempt tracker mutates under Latency(), so instances must
// be call-site private (one per query worker, reseeded per query; one
// serial maintenance instance). Without grey failure the decorator is
// a pure read and shareable across query threads; set_epoch() is
// serial-only either way (the engines call it between epochs' serial
// churn windows).
#pragma once

#include <cstdint>
#include <vector>

#include "core/latency_space.h"
#include "util/pair_stream.h"
#include "util/types.h"

namespace np::matrix {

/// One partition window: during epochs [start_epoch, end_epoch) the
/// population is split; component[node] names the side a node is on.
/// Nodes beyond the vector (or with no listed cluster) sit in
/// component 0.
struct PartitionWindow {
  int start_epoch = 0;
  int end_epoch = 0;  // exclusive
  std::vector<int> component;
};

/// Immutable correlated-fault plan for one run. The engine owns it and
/// every PartitionedSpace instance of the run (maintenance stack,
/// query-worker stacks, serving readers) borrows the same object, which is
/// what keeps the partition cut and the grey/asymmetric membership
/// identical everywhere.
struct PartitionSchedule {
  std::vector<PartitionWindow> windows;
  /// Grey failure: each node is grey with probability grey_node_frac
  /// (decided by grey_seed, not by instance seeds); probes touching a
  /// grey node are lost with grey_loss_rate per attempt.
  double grey_node_frac = 0.0;
  double grey_loss_rate = 0.0;
  std::uint64_t grey_seed = 0;
  /// Fraction of directed pairs that are permanently one-way dead
  /// (decided by asym_seed).
  double asymmetric_frac = 0.0;
  std::uint64_t asym_seed = 0;

  /// True iff any pathology is configured at all.
  bool Any() const {
    return !windows.empty() || GreyActive() || asymmetric_frac > 0.0;
  }
  /// True iff grey failure is configured (the one stateful pathology).
  bool GreyActive() const {
    return grey_node_frac > 0.0 && grey_loss_rate > 0.0;
  }
  /// The window covering `epoch`, or nullptr when the population is
  /// whole. Windows must not overlap (validated by the engine).
  const PartitionWindow* WindowFor(int epoch) const;
  /// True iff `n` is grey under this schedule.
  bool IsGrey(NodeId n) const;
  /// True iff the directed link a -> b is permanently dead.
  bool AsymmetricLost(NodeId a, NodeId b) const;
};

/// Rejects grey and one-way loss rates PartitionedSpace cannot apply;
/// its constructor calls this.
void ValidatePathologies(const PartitionSchedule& schedule);

/// Component of `n` under window `w` (0 when beyond the vector).
int ComponentOf(const PartitionWindow& w, NodeId n);

class PartitionedSpace final : public core::LatencySpace {
 public:
  /// `schedule` is borrowed and must outlive the decorator. `seed`
  /// drives only the per-attempt grey-loss stream; partition and
  /// asymmetric membership come from the schedule's own seeds.
  /// Construction leaves the decorator at epoch -1: no partition window
  /// is active during the initial overlay build, which happens before
  /// epoch 0 (grey and asymmetric loss, being permanent network
  /// pathologies, do apply to the build).
  PartitionedSpace(const core::LatencySpace& inner,
                   const PartitionSchedule& schedule, std::uint64_t seed);

  NodeId size() const override { return inner_->size(); }

  LatencyMs Latency(NodeId a, NodeId b) const override;

  /// Advances the schedule clock. Serial-only: the engines call this at
  /// each epoch's churn-window start, never while query threads run.
  void set_epoch(int epoch);
  int epoch() const { return epoch_; }

  /// The partition window active at the current epoch (nullptr when the
  /// population is whole).
  const PartitionWindow* active_window() const { return active_; }

  const PartitionSchedule& schedule() const { return *schedule_; }

  /// Forgets every grey-loss attempt count and restarts that stream at
  /// `seed`, as in a new decorator seeded so. The epoch stays.
  void Reseed(std::uint64_t seed) { stream_.Reset(seed); }

 private:
  const core::LatencySpace* inner_;
  const PartitionSchedule* schedule_;
  /// Grey-loss attempt stream, bounded like FaultySpace's; untouched
  /// unless GreyActive().
  mutable util::PairStream stream_;
  int epoch_ = -1;
  const PartitionWindow* active_ = nullptr;
};

}  // namespace np::matrix
