#include "mech/composite.h"

#include <algorithm>

#include "util/error.h"

namespace np::mech {

CompositeProximity::CompositeProximity(
    const net::Topology& topology, const algos::CoordNearest& coordinates)
    : topology_(&topology), coordinates_(&coordinates) {}

void CompositeProximity::RegisterPeer(NodeId peer) {
  ucls_[peer] = BuildUcl(*topology_, peer);
}

bool CompositeProximity::IsRegistered(NodeId peer) const {
  return ucls_.count(peer) > 0;
}

LatencyMs CompositeProximity::EstimateLatency(NodeId a, NodeId b) const {
  const auto ia = ucls_.find(a);
  const auto ib = ucls_.find(b);
  NP_ENSURE(ia != ucls_.end() && ib != ucls_.end(),
            "both peers must be registered");
  // Shared-router estimate: the minimum over shared routers of the sum
  // of the two legs (the deepest shared router gives the smallest sum
  // in tree routing, but scanning all pairs is cheap at <= 5 each).
  LatencyMs best = kInfiniteLatency;
  for (const UclEntry& ea : ia->second) {
    for (const UclEntry& eb : ib->second) {
      if (ea.router == eb.router) {
        best = std::min(best, ea.latency_ms + eb.latency_ms);
      }
    }
  }
  if (best != kInfiniteLatency) {
    return best;
  }
  return coordinates_->PredictedLatency(a, b);
}

bool CompositeProximity::SharesUpstreamRouter(NodeId a, NodeId b) const {
  const auto ia = ucls_.find(a);
  const auto ib = ucls_.find(b);
  NP_ENSURE(ia != ucls_.end() && ib != ucls_.end(),
            "both peers must be registered");
  for (const UclEntry& ea : ia->second) {
    for (const UclEntry& eb : ib->second) {
      if (ea.router == eb.router) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace np::mech
