#include "core/probe_stack.h"

namespace np::core {

namespace {

std::optional<matrix::PartitionedSpace> MaybePartition(
    const LatencySpace& inner, const matrix::PartitionSchedule* schedule,
    std::uint64_t seed) {
  if (schedule == nullptr || !schedule->Any()) {
    return std::nullopt;
  }
  return std::optional<matrix::PartitionedSpace>(std::in_place, inner,
                                                 *schedule, seed);
}

}  // namespace

ProbeStack::ProbeStack(const LatencySpace& backend, const ProbeFaults& faults,
                       const ProbeSeeds& seeds,
                       const std::unordered_set<NodeId>* crashed,
                       PerNodeLedger* ledger)
    : noisy_(backend, faults.noise_frac, seeds.noise, faults.noise_floor_ms),
      partitioned_(MaybePartition(noisy_, faults.partition, seeds.partition)),
      faulty_(partitioned_ ? static_cast<const LatencySpace&>(*partitioned_)
                           : noisy_,
              faults.loss_rate, seeds.fault, crashed),
      metered_(faulty_, ledger) {}

void ProbeStack::Reseed(const ProbeSeeds& seeds) {
  noisy_.Reseed(seeds.noise);
  if (partitioned_) {
    partitioned_->Reseed(seeds.partition);
  }
  faulty_.Reseed(seeds.fault);
  metered_.ResetProbes();
}

}  // namespace np::core
