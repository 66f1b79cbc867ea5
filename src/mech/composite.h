// Composite proximity addresses (paper §5): "the UCL (or the IP
// prefix) is added as an extension of the otherwise latency-based
// proximity address. When comparing two such composite addresses, if
// the UCL indicates that the nodes share an upstream router, then the
// nodes are considered to be close together and the proximity address
// may be ignored. If the two nodes do not share an upstream router,
// then the UCL is ignored."
//
// This fixes the coordinate systems' §2.2 blind spot: coordinates
// cannot resolve LAN-scale distances inside a cluster, but a shared
// upstream router (with embedded leg latencies) can.
#pragma once

#include "algos/coord_nearest.h"
#include "mech/ucl.h"
#include "net/topology.h"

namespace np::mech {

class CompositeProximity {
 public:
  /// The built coordinate overlay provides the latency-based part of
  /// the address; its members must cover every peer passed to
  /// RegisterPeer / EstimateLatency, and it must outlive this object.
  CompositeProximity(const net::Topology& topology,
                     const algos::CoordNearest& coordinates);

  /// Computes and stores the peer's UCL extension.
  void RegisterPeer(NodeId peer);

  bool IsRegistered(NodeId peer) const;

  /// Estimated RTT between two registered peers: through the deepest
  /// shared UCL router when one exists (sum of embedded legs),
  /// otherwise the coordinate distance.
  LatencyMs EstimateLatency(NodeId a, NodeId b) const;

  /// True when the UCL extension resolved the estimate (shared
  /// router), false when it fell back to coordinates.
  bool SharesUpstreamRouter(NodeId a, NodeId b) const;

 private:
  const net::Topology* topology_;
  const algos::CoordNearest* coordinates_;
  std::unordered_map<NodeId, std::vector<UclEntry>> ucls_;
};

}  // namespace np::mech
