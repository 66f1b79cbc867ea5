#include "core/latency_space.h"

namespace np::core {

NodeId LatencySpace::ClosestOf(NodeId target, std::span<const NodeId> members,
                               LatencyMs* latency) const {
  NodeId best = kInvalidNode;
  LatencyMs best_latency = kInfiniteLatency;
  for (const NodeId m : members) {
    if (m == target) {
      continue;
    }
    const LatencyMs l = Latency(m, target);
    if (l < best_latency || (l == best_latency && m < best)) {
      best = m;
      best_latency = l;
    }
  }
  *latency = best_latency;
  return best;
}

}  // namespace np::core
