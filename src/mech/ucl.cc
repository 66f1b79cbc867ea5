#include "mech/ucl.h"

#include <algorithm>
#include <unordered_map>

#include "util/contract.h"
#include "util/error.h"

namespace np::mech {

std::vector<UclEntry> BuildUcl(const net::Topology& topology, NodeId host) {
  static_assert(kUclMaxRouters >= 1, "UCL needs at least one router");
  std::vector<UclEntry> ucl;
  for (RouterId router : topology.UpChain(host)) {
    if (static_cast<int>(ucl.size()) >= kUclMaxRouters) {
      break;
    }
    // Traceroute-invisible routers cannot enter a UCL.
    if (!topology.router(router).responds) {
      continue;
    }
    ucl.push_back(UclEntry{router, topology.LatencyToRouter(host, router)});
  }
  return ucl;
}

void UclDirectory::RegisterPeer(const net::Topology& topology, NodeId peer,
                                util::Rng& rng) {
  if (!registered_.insert(peer).second) {
    return;  // already published; a second copy would duplicate entries
  }
  for (const UclEntry& entry : BuildUcl(topology, peer)) {
    map_->Put(static_cast<std::uint64_t>(entry.router),
              EncodePeerLatency(peer, entry.latency_ms), rng);
  }
}

void UclDirectory::UnregisterPeer(const net::Topology& topology, NodeId peer,
                                  util::Rng& rng) {
  if (registered_.erase(peer) == 0) {
    return;  // repeated/spurious departure notice
  }
  for (const UclEntry& entry : BuildUcl(topology, peer)) {
    map_->Remove(static_cast<std::uint64_t>(entry.router),
                 EncodePeerLatency(peer, entry.latency_ms), rng);
  }
}

std::vector<UclDirectory::Candidate> UclDirectory::Candidates(
    const net::Topology& topology, NodeId joiner, util::Rng& rng,
    LatencyMs max_estimate_ms) const {
  std::unordered_map<NodeId, Candidate> best;
  for (const UclEntry& entry : BuildUcl(topology, joiner)) {
    for (std::uint64_t value :
         map_->Get(static_cast<std::uint64_t>(entry.router), rng)) {
      const NodeId peer = DecodePeer(value);
      if (peer == joiner) {
        continue;
      }
      const LatencyMs estimate = entry.latency_ms + DecodeLatency(value);
      const auto it = best.find(peer);
      if (it == best.end() || estimate < it->second.estimated_ms) {
        best[peer] = Candidate{peer, estimate, entry.router};
      }
    }
  }
  std::vector<Candidate> out;
  out.reserve(best.size());
  NP_ORDER_INSENSITIVE("filtered into `out`, sorted with a total tie-break");
  for (const auto& [peer, candidate] : best) {
    if (candidate.estimated_ms <= max_estimate_ms) {
      out.push_back(candidate);
    }
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.estimated_ms != b.estimated_ms) {
      return a.estimated_ms < b.estimated_ms;
    }
    return a.peer < b.peer;
  });
  return out;
}

}  // namespace np::mech
