#include "mech/local_search.h"

#include <algorithm>

namespace np::mech {

namespace detail {

bool EndnetLists::Add(int endnet_id, NodeId peer) {
  if (slot_.contains(peer)) {
    return false;
  }
  auto& list = lists_[endnet_id];
  slot_[peer] = list.size();
  list.push_back(peer);
  return true;
}

bool EndnetLists::Remove(int endnet_id, NodeId peer) {
  const auto sit = slot_.find(peer);
  if (sit == slot_.end()) {
    return false;
  }
  auto& list = lists_.at(endnet_id);
  const std::size_t position = sit->second;
  const std::size_t last = list.size() - 1;
  if (position != last) {
    list[position] = list[last];
    slot_[list[position]] = position;
  }
  list.pop_back();
  slot_.erase(sit);
  if (list.empty()) {
    lists_.erase(endnet_id);
  }
  return true;
}

std::vector<NodeId> EndnetLists::OthersIn(int endnet_id, NodeId peer) const {
  const auto it = lists_.find(endnet_id);
  if (it == lists_.end()) {
    return {};
  }
  std::vector<NodeId> out;
  for (NodeId other : it->second) {
    if (other != peer) {
      out.push_back(other);
    }
  }
  return out;
}

}  // namespace detail

bool MulticastBootstrap::RegisterPeer(NodeId peer) {
  const net::Host& h = topology_->host(peer);
  if (h.endnet_id < 0 || !by_endnet_.Add(h.endnet_id, peer)) {
    return false;  // homeless, or already registered
  }
  ++registered_;
  return true;
}

bool MulticastBootstrap::UnregisterPeer(NodeId peer) {
  const net::Host& h = topology_->host(peer);
  if (h.endnet_id < 0 || !by_endnet_.Remove(h.endnet_id, peer)) {
    return false;
  }
  --registered_;
  return true;
}

std::vector<NodeId> MulticastBootstrap::Search(NodeId joiner) const {
  const net::Host& h = topology_->host(joiner);
  if (h.endnet_id < 0) {
    return {};
  }
  const net::EndNetwork& net =
      topology_->endnets()[static_cast<std::size_t>(h.endnet_id)];
  if (!net.multicast_enabled) {
    return {};
  }
  return by_endnet_.OthersIn(h.endnet_id, joiner);
}

EndNetworkRegistry::EndNetworkRegistry(const net::Topology& topology,
                                       double deploy_prob,
                                       int large_network_hosts,
                                       util::Rng& rng)
    : topology_(&topology) {
  // Count hosts per end-network to bias deployment toward large sites.
  std::unordered_map<int, int> host_count;
  for (const net::Host& h : topology.hosts()) {
    if (h.endnet_id >= 0) {
      ++host_count[h.endnet_id];
    }
  }
  for (const net::EndNetwork& net : topology.endnets()) {
    double p = deploy_prob;
    const auto it = host_count.find(net.id);
    if (it != host_count.end() && it->second >= large_network_hosts) {
      p = std::min(1.0, 2.0 * p);
    }
    if (rng.Bernoulli(p)) {
      deployed_.insert(net.id);
    }
  }
}

bool EndNetworkRegistry::HasRegistry(int endnet_id) const {
  return deployed_.count(endnet_id) > 0;
}

bool EndNetworkRegistry::RegisterPeer(NodeId peer) {
  const net::Host& h = topology_->host(peer);
  return h.endnet_id >= 0 && HasRegistry(h.endnet_id) &&
         members_.Add(h.endnet_id, peer);
}

bool EndNetworkRegistry::UnregisterPeer(NodeId peer) {
  const net::Host& h = topology_->host(peer);
  if (h.endnet_id < 0 || !HasRegistry(h.endnet_id)) {
    return false;
  }
  return members_.Remove(h.endnet_id, peer);
}

std::vector<NodeId> EndNetworkRegistry::Query(NodeId joiner) const {
  const net::Host& h = topology_->host(joiner);
  if (h.endnet_id < 0 || !HasRegistry(h.endnet_id)) {
    return {};
  }
  return members_.OthersIn(h.endnet_id, joiner);
}

}  // namespace np::mech
