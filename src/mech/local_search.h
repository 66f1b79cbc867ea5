// §5's first two approaches:
//
//  * Expanding multicast search inside the end-network — works only
//    where site multicast is enabled and only finds peers in the
//    joiner's own end-network (home users have no end-network at all).
//
//  * A membership-tracking registry server per end-network — needs a
//    deployed server, which only large networks justify; we model
//    deployment as a per-network Bernoulli weighted by network size.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/topology.h"
#include "util/rng.h"

namespace np::mech {

namespace detail {

/// Registered peers per end-network, each peer's slot in its list
/// tracked so register and unregister are O(1) (swap-and-pop).
class EndnetLists {
 public:
  /// Appends `peer` to `endnet_id`'s list; false when already listed (a
  /// duplicate entry would outlive its slot record).
  bool Add(int endnet_id, NodeId peer);

  /// Swap-and-pop removal; false when `peer` was never listed.
  bool Remove(int endnet_id, NodeId peer);

  /// Everyone in `endnet_id`'s list but `peer`, in list order.
  std::vector<NodeId> OthersIn(int endnet_id, NodeId peer) const;

 private:
  std::unordered_map<int, std::vector<NodeId>> lists_;
  /// peer -> its slot in lists_[its endnet].
  std::unordered_map<NodeId, std::size_t> slot_;
};

}  // namespace detail

class MulticastBootstrap {
 public:
  explicit MulticastBootstrap(const net::Topology& topology)
      : topology_(&topology) {}

  /// A peer starts answering expanding-ring searches in its network.
  /// No-op for home users (nothing to multicast into) — returns false.
  bool RegisterPeer(NodeId peer);

  /// The peer stops answering (incremental churn). O(1): the peer's
  /// slot in its end-network list is tracked and swap-popped. Returns
  /// false when the peer was never registered.
  bool UnregisterPeer(NodeId peer);

  /// All registered peers reachable by an expanding multicast search
  /// from the joiner: members of the joiner's end-network, if that
  /// network has multicast enabled. Empty otherwise.
  std::vector<NodeId> Search(NodeId joiner) const;

  int registered_peers() const { return registered_; }

 private:
  const net::Topology* topology_;
  detail::EndnetLists by_endnet_;
  int registered_ = 0;
};

class EndNetworkRegistry {
 public:
  /// Decides which end-networks run a registry server: probability
  /// deploy_prob, doubled (capped at 1) for networks that already host
  /// `large_network_hosts`+ hosts — "it needs a sufficiently large
  /// number of peers within each end-network to justify the setup".
  EndNetworkRegistry(const net::Topology& topology, double deploy_prob,
                     int large_network_hosts, util::Rng& rng);

  bool HasRegistry(int endnet_id) const;

  /// Registers the peer with its network's server; false if the peer
  /// has no end-network or the network runs no registry.
  bool RegisterPeer(NodeId peer);

  /// Deregisters the peer from its network's server (incremental
  /// churn). O(1) via the tracked slot; false when it was never
  /// registered.
  bool UnregisterPeer(NodeId peer);

  /// Peers registered in the joiner's end-network (empty without a
  /// registry).
  std::vector<NodeId> Query(NodeId joiner) const;

  int deployed_count() const {
    return static_cast<int>(deployed_.size());
  }

 private:
  const net::Topology* topology_;
  std::unordered_set<int> deployed_;
  detail::EndnetLists members_;
};

}  // namespace np::mech
