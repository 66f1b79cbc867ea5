#include "measure/azureus_study.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "util/error.h"
#include "util/stats.h"

namespace np::measure {

std::pair<std::size_t, std::size_t> LargestBoundedWindow(
    const std::vector<double>& sorted, double factor) {
  NP_ENSURE(factor >= 1.0, "prune factor must be >= 1");
  NP_ENSURE(std::is_sorted(sorted.begin(), sorted.end()),
            "window search requires sorted input");
  std::size_t best_lo = 0;
  std::size_t best_hi = 0;  // exclusive
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < sorted.size(); ++hi) {
    while (sorted[hi] > factor * sorted[lo]) {
      ++lo;
    }
    if (hi + 1 - lo > best_hi - best_lo) {
      best_lo = lo;
      best_hi = hi + 1;
    }
  }
  return {best_lo, best_hi};
}

std::vector<int> AzureusStudyResult::UnprunedSizes() const {
  std::vector<int> sizes;
  sizes.reserve(clusters.size());
  for (const auto& c : clusters) {
    sizes.push_back(static_cast<int>(c.peers.size()));
  }
  std::sort(sizes.rbegin(), sizes.rend());
  return sizes;
}

std::vector<int> AzureusStudyResult::PrunedSizes() const {
  std::vector<int> sizes;
  sizes.reserve(clusters.size());
  for (const auto& c : clusters) {
    sizes.push_back(static_cast<int>(c.pruned_peers.size()));
  }
  std::sort(sizes.rbegin(), sizes.rend());
  return sizes;
}

double AzureusStudyResult::FractionInPrunedClustersAtLeast(int k) const {
  int total = 0;
  int in_large = 0;
  for (const auto& c : clusters) {
    total += static_cast<int>(c.peers.size());
    if (static_cast<int>(c.pruned_peers.size()) >= k) {
      in_large += static_cast<int>(c.pruned_peers.size());
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(in_large) / total;
}

std::vector<const AzureusCluster*> AzureusStudyResult::LargestPruned(
    int n) const {
  std::vector<const AzureusCluster*> out;
  out.reserve(clusters.size());
  for (const auto& c : clusters) {
    out.push_back(&c);
  }
  std::sort(out.begin(), out.end(),
            [](const AzureusCluster* a, const AzureusCluster* b) {
              return a->pruned_peers.size() > b->pruned_peers.size();
            });
  if (static_cast<int>(out.size()) > n) {
    out.resize(static_cast<std::size_t>(n));
  }
  return out;
}

AzureusStudyResult RunAzureusStudy(const net::Topology& topology,
                                   net::Tools& tools) {
  const auto& vantages = topology.vantage_hosts();
  NP_ENSURE(!vantages.empty(), "no vantage points");

  AzureusStudyResult result;
  const std::vector<NodeId> peers =
      topology.HostsOfKind(net::HostKind::kAzureusPeer);
  result.total_ips = static_cast<int>(peers.size());

  std::map<RouterId, AzureusCluster> by_hub;

  for (NodeId peer : peers) {
    // Responsiveness screen from the first vantage point: a TCP ping or
    // a traceroute that reaches the destination.
    const auto tcp0 = tools.TcpPing(vantages[0], peer);
    const auto trace0 = tools.Traceroute(vantages[0], peer);
    if (!tcp0.has_value() && !trace0.dest_responded) {
      continue;
    }
    ++result.responsive;

    // Unique upstream router across every vantage point.
    std::vector<net::TracerouteResult> traces;
    traces.reserve(vantages.size());
    traces.push_back(trace0);
    for (std::size_t v = 1; v < vantages.size(); ++v) {
      traces.push_back(tools.Traceroute(vantages[v], peer));
    }
    RouterId hub = kInvalidRouter;
    bool unique = true;
    for (const auto& trace : traces) {
      const int last = trace.LastValidHop();
      if (last < 0) {
        unique = false;
        break;
      }
      const RouterId r = trace.hops[static_cast<std::size_t>(last)].router;
      if (hub == kInvalidRouter) {
        hub = r;
      } else if (hub != r) {
        unique = false;
        break;
      }
    }
    if (!unique || hub == kInvalidRouter) {
      continue;
    }
    ++result.unique_upstream;

    // Hub-to-peer latency: per vantage, (peer RTT) - (hub hop RTT),
    // where the peer RTT comes from a TCP ping or, failing that, the
    // traceroute's destination RTT. Negative estimates are discarded
    // (paper §3.1 handles the analogous case the same way).
    std::vector<double> estimates;
    for (std::size_t v = 0; v < vantages.size(); ++v) {
      const int last = traces[v].LastValidHop();
      if (last < 0) {
        continue;
      }
      const double hub_rtt =
          traces[v].hops[static_cast<std::size_t>(last)].rtt_ms;
      std::optional<LatencyMs> peer_rtt =
          v == 0 ? tcp0 : tools.TcpPing(vantages[v], peer);
      if (!peer_rtt.has_value() && traces[v].dest_responded) {
        peer_rtt = traces[v].dest_rtt_ms;
      }
      if (!peer_rtt.has_value()) {
        continue;
      }
      const double est = *peer_rtt - hub_rtt;
      if (est > 0.0) {
        estimates.push_back(est);
      }
    }
    if (estimates.empty()) {
      continue;
    }
    const double latency = util::Percentile(std::move(estimates), 50.0);

    AzureusCluster& cluster = by_hub[hub];
    cluster.hub = hub;
    cluster.peers.push_back(peer);
    cluster.hub_latencies.push_back(latency);
  }

  // Prune each cluster: the largest subset whose latencies are within
  // kPruneFactor of one another.
  result.clusters.reserve(by_hub.size());
  for (auto& [hub, cluster] : by_hub) {
    std::vector<std::size_t> order(cluster.peers.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return cluster.hub_latencies[a] < cluster.hub_latencies[b];
    });
    std::vector<double> sorted;
    sorted.reserve(order.size());
    for (std::size_t i : order) {
      sorted.push_back(cluster.hub_latencies[i]);
    }
    const auto [lo, hi] = LargestBoundedWindow(sorted, kPruneFactor);
    for (std::size_t i = lo; i < hi; ++i) {
      cluster.pruned_peers.push_back(cluster.peers[order[i]]);
      cluster.pruned_latencies.push_back(sorted[i]);
    }
    result.clusters.push_back(std::move(cluster));
  }
  return result;
}

}  // namespace np::measure
