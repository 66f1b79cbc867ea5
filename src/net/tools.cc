#include "net/tools.h"

#include <algorithm>
#include <cmath>

namespace np::net {

int TracerouteResult::LastValidHop() const {
  for (int i = static_cast<int>(hops.size()) - 1; i >= 0; --i) {
    if (hops[static_cast<std::size_t>(i)].responded) {
      return i;
    }
  }
  return -1;
}

TracerouteResult MergeTraceroutes(const TracerouteResult& a,
                                  const TracerouteResult& b) {
  NP_ENSURE(a.hops.size() == b.hops.size(),
            "cannot merge traces of different paths");
  TracerouteResult merged = a;
  for (std::size_t i = 0; i < merged.hops.size(); ++i) {
    NP_ENSURE(a.hops[i].router == b.hops[i].router,
              "cannot merge traces of different paths");
    if (!merged.hops[i].responded && b.hops[i].responded) {
      merged.hops[i] = b.hops[i];
    }
  }
  if (!merged.dest_responded && b.dest_responded) {
    merged.dest_responded = true;
    merged.dest_rtt_ms = b.dest_rtt_ms;
  }
  return merged;
}

Tools::Tools(const Topology& topology, util::Rng rng)
    : topology_(&topology), rng_(rng) {}

LatencyMs Tools::Jitter(LatencyMs true_ms, double frac) {
  const double jittered = true_ms * (1.0 + rng_.Gaussian(0.0, frac));
  return std::max(jittered, kRttFloorMs);
}

std::optional<LatencyMs> Tools::Ping(NodeId from, NodeId to) {
  const Host& dest = topology_->host(to);
  if (!dest.responds_traceroute) {
    return std::nullopt;
  }
  return Jitter(topology_->LatencyBetween(from, to), kRttJitterFrac);
}

std::optional<LatencyMs> Tools::PingRouter(NodeId from, RouterId router) {
  const Router& r = topology_->router(router);
  if (!r.responds) {
    return std::nullopt;
  }
  return Jitter(topology_->LatencyToRouter(from, router), kRttJitterFrac);
}

std::optional<LatencyMs> Tools::TcpPing(NodeId from, NodeId to) {
  const Host& dest = topology_->host(to);
  if (!dest.responds_tcp) {
    return std::nullopt;
  }
  const LatencyMs base =
      Jitter(topology_->LatencyBetween(from, to), kRttJitterFrac);
  return base + rng_.Exponential(kTcpSynLagMeanMs);
}

TracerouteResult Tools::Traceroute(NodeId from, NodeId to) {
  TracerouteResult result;
  const auto path = topology_->RouterPath(from, to);
  // All hops of one trace share the path (and its congestion state),
  // so they see one common multiplicative factor plus a small per-hop
  // residual. This is what makes consecutive-hop RTT differences
  // meaningful, as the paper's §5 adjacency graph requires.
  const double trace_factor = 1.0 + rng_.Gaussian(0.0, kRttJitterFrac);
  const auto hop_rtt = [&](LatencyMs true_ms) {
    const double v = true_ms * trace_factor *
                     (1.0 + rng_.Gaussian(0.0, kTraceHopJitterFrac));
    return std::max(v, kRttFloorMs);
  };
  result.hops.reserve(path.size());
  for (const PathHop& hop : path) {
    const Router& r = topology_->router(hop.router);
    TracerouteHop out;
    out.router = hop.router;
    out.responded = r.responds && rng_.Bernoulli(kTracePerProbeRespond);
    if (out.responded) {
      out.rtt_ms = hop_rtt(hop.rtt_from_source_ms);
      out.annotated_as = r.annotated_as;
      out.annotated_city = r.annotated_city;
    }
    result.hops.push_back(out);
  }
  const Host& dest = topology_->host(to);
  result.dest_responded = dest.responds_traceroute;
  if (result.dest_responded) {
    result.dest_rtt_ms = hop_rtt(topology_->LatencyBetween(from, to));
  }
  return result;
}

std::optional<LatencyMs> Tools::King(NodeId server_a, NodeId server_b) {
  const Host& a = topology_->host(server_a);
  const Host& b = topology_->host(server_b);
  NP_ENSURE(a.kind == HostKind::kDnsRecursive &&
                b.kind == HostKind::kDnsRecursive,
            "King requires DNS servers");
  if (a.domain_id == b.domain_id) {
    // Same-domain servers are authoritative for the same names; the
    // recursive query is answered locally and never forwarded (§3.1).
    return std::nullopt;
  }
  if (rng_.Bernoulli(kKingFailProb)) {
    return std::nullopt;
  }
  LatencyMs true_ms = topology_->LatencyBetween(server_a, server_b);
  // Alternate paths bypass the common upstream router with a floor
  // probability plus a component growing in the path latency.
  const double shortcut_prob = std::clamp(
      kKingShortcutBaseProb +
          (true_ms - kKingShortcutBaseMs) / kKingShortcutScaleMs,
      0.0, kKingShortcutMaxProb);
  if (rng_.Bernoulli(shortcut_prob)) {
    true_ms *= rng_.Uniform(kKingShortcutFactorLo, kKingShortcutFactorHi);
  }
  // Processing lag at both servers inflates the estimate; dominant for
  // nearby pairs. Busy resolvers occasionally add a large spike.
  LatencyMs lag = rng_.Exponential(a.dns_lag_mean_ms) +
                  rng_.Exponential(b.dns_lag_mean_ms);
  if (rng_.Bernoulli(kKingLagSpikeProb)) {
    lag += rng_.Exponential(kKingLagSpikeMeanMs);
  }
  return Jitter(true_ms, kKingJitterFrac) + lag;
}

}  // namespace np::net
