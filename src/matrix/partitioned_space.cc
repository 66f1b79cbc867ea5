#include "matrix/partitioned_space.h"

#include "matrix/faulty_space.h"
#include "util/error.h"
#include "util/rng.h"

namespace np::matrix {
namespace {

// Domain-separation tags for the schedule-level membership draws; the
// per-attempt grey stream uses the instance seed and needs no tag.
constexpr std::uint64_t kGreyTag = 0x6e702d6772657901ULL;
constexpr std::uint64_t kAsymTag = 0x6e702d6173796d02ULL;

// Directed pair key: (a, b) != (b, a), unlike util::PairKey.
std::uint64_t DirectedKey(NodeId a, NodeId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(b));
}

}  // namespace

const PartitionWindow* PartitionSchedule::WindowFor(int epoch) const {
  for (const PartitionWindow& w : windows) {
    if (epoch >= w.start_epoch && epoch < w.end_epoch) {
      return &w;
    }
  }
  return nullptr;
}

bool PartitionSchedule::IsGrey(NodeId n) const {
  if (grey_node_frac <= 0.0) {
    return false;
  }
  const std::uint64_t mixed =
      util::Mix64(grey_seed ^ kGreyTag ^ static_cast<std::uint64_t>(n));
  return util::MixToUnit(mixed) < grey_node_frac;
}

bool PartitionSchedule::AsymmetricLost(NodeId a, NodeId b) const {
  if (asymmetric_frac <= 0.0) {
    return false;
  }
  const std::uint64_t mixed =
      util::Mix64(asym_seed ^ kAsymTag ^ DirectedKey(a, b));
  return util::MixToUnit(mixed) < asymmetric_frac;
}

int ComponentOf(const PartitionWindow& w, NodeId n) {
  const auto idx = static_cast<std::size_t>(n);
  return idx < w.component.size() ? w.component[idx] : 0;
}

void ValidatePathologies(const PartitionSchedule& schedule) {
  NP_ENSURE(
      schedule.grey_node_frac >= 0.0 && schedule.grey_node_frac <= 1.0 &&
          schedule.grey_loss_rate >= 0.0 && schedule.grey_loss_rate < 1.0,
    "PartitionSchedule grey_node_frac must be in [0, 1], grey_loss_rate "
    "in [0, 1)");
  NP_ENSURE(schedule.asymmetric_frac >= 0.0 && schedule.asymmetric_frac < 1.0,
            "PartitionSchedule asymmetric_frac must be in [0, 1)");
}

PartitionedSpace::PartitionedSpace(const core::LatencySpace& inner,
                                   const PartitionSchedule& schedule,
                                   std::uint64_t seed)
    : inner_(&inner), schedule_(&schedule), stream_(seed) {
  ValidatePathologies(schedule);
}

void PartitionedSpace::set_epoch(int epoch) {
  epoch_ = epoch;
  active_ = schedule_->WindowFor(epoch);
}

LatencyMs PartitionedSpace::Latency(NodeId a, NodeId b) const {
  // a == b is a self-measurement (no network), exempt from every
  // pathology, same as NoisySpace jitter and FaultySpace loss.
  if (a != b) {
    // Partition first: inter-component probes are unconditionally lost
    // while a window is active. Stateless, so partition-only instances
    // stay shareable across query threads.
    if (active_ != nullptr &&
        ComponentOf(*active_, a) != ComponentOf(*active_, b)) {
      return kLostProbeMs;
    }
    // One-way dead links: permanent, stateless, direction-sensitive.
    if (schedule_->AsymmetricLost(a, b)) {
      return kLostProbeMs;
    }
    // Grey endpoints: per-attempt loss, re-rolled with FaultySpace's
    // order-robust (seed, pair, attempt) scheme so retries can still
    // get through.
    if (schedule_->GreyActive() &&
        (schedule_->IsGrey(a) || schedule_->IsGrey(b))) {
      if (util::MixToUnit(stream_.Next(a, b)) < schedule_->grey_loss_rate) {
        return kLostProbeMs;
      }
    }
  }
  return inner_->Latency(a, b);
}

}  // namespace np::matrix
