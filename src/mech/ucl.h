// The UCL (Upstream Connectivity List) mechanism (§5, third approach):
// each peer learns the routers within a few hops upstream by running
// traceroutes, publishes (router -> peer, latency-to-router) mappings
// into the key-value map, and a newly joining peer retrieves the peers
// it shares upstream routers with. Embedded latencies let it discard
// candidates whose estimated distance (sum of the two router legs) is
// too large without probing — the false-positive immunity the paper
// highlights over the IP-prefix variant.
#pragma once

#include <unordered_set>
#include <vector>

#include "mech/key_value_map.h"
#include "net/topology.h"

namespace np::mech {

/// Upstream routers tracked per peer ("a fixed number of hops, say 5,
/// or closer from the peer").
inline constexpr int kUclMaxRouters = 5;

struct UclEntry {
  RouterId router = kInvalidRouter;
  /// RTT from the peer to this router, ms.
  LatencyMs latency_ms = 0.0;
};

/// The peer's UCL: its up-chain routers that answer traceroute probes
/// (a peer can only learn routers that respond), nearest first, capped
/// at kUclMaxRouters.
std::vector<UclEntry> BuildUcl(const net::Topology& topology, NodeId host);

class UclDirectory {
 public:
  /// The map is borrowed and must outlive the directory.
  explicit UclDirectory(KeyValueMap& map) : map_(&map) {}

  /// Copy-rebind: duplicates `other`'s registration state on top of a
  /// different (typically freshly cloned) map. Used by snapshot clones,
  /// where the clone owns its own map copy.
  UclDirectory(const UclDirectory& other, KeyValueMap& map)
      : map_(&map), registered_(other.registered_) {}

  /// Publishes the peer's UCL mappings. Idempotent: a repeated
  /// registration is a no-op (re-publishing would duplicate map
  /// entries).
  void RegisterPeer(const net::Topology& topology, NodeId peer,
                    util::Rng& rng);

  /// Withdraws the peer's UCL mappings (incremental churn: the
  /// leaver's entries are deleted key by key instead of the directory
  /// being rebuilt). The UCL is a pure function of the topology, so
  /// the published keys are recomputed rather than stored. Tolerates
  /// repeated or spurious departure notices (no-op for unregistered
  /// peers).
  void UnregisterPeer(const net::Topology& topology, NodeId peer,
                      util::Rng& rng);

  struct Candidate {
    NodeId peer = kInvalidNode;
    /// Estimated RTT: joiner leg + candidate leg through the shared
    /// router (an upper bound on the true RTT in tree routing).
    LatencyMs estimated_ms = 0.0;
    RouterId shared_router = kInvalidRouter;
  };

  /// Peers sharing at least one UCL router with the joiner, deduped to
  /// their best estimate, sorted ascending by estimate, and filtered
  /// to estimates <= max_estimate_ms (pass kInfiniteLatency to keep
  /// all).
  std::vector<Candidate> Candidates(const net::Topology& topology,
                                    NodeId joiner, util::Rng& rng,
                                    LatencyMs max_estimate_ms) const;

  int registered_peers() const {
    return static_cast<int>(registered_.size());
  }

 private:
  KeyValueMap* map_;
  std::unordered_set<NodeId> registered_;
};

}  // namespace np::mech
