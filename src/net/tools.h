// Simulated measurement tools over the synthetic topology.
//
// Each tool returns what its real counterpart would: noisy RTTs,
// partially responding traceroute hops with name-derived AS/city
// annotations (rockettrace), and King estimates between recursive DNS
// servers — including both bias sources the paper identifies in §3.1:
// server processing lag inflating small measurements and alternate
// paths deflating large ones.
#pragma once

#include <optional>
#include <vector>

#include "net/topology.h"
#include "util/rng.h"

namespace np::net {

struct TracerouteHop {
  RouterId router = kInvalidRouter;
  /// False renders as "* * *": no RTT, no annotation.
  bool responded = false;
  LatencyMs rtt_ms = 0.0;
  /// rockettrace's name-derived annotation (may be misconfigured).
  int annotated_as = -1;
  int annotated_city = -1;
};

struct TracerouteResult {
  std::vector<TracerouteHop> hops;
  bool dest_responded = false;
  LatencyMs dest_rtt_ms = 0.0;

  /// Index of the last responding hop, or -1 if none.
  int LastValidHop() const;
};

/// Merges repeated traces of the same path (rockettrace probes every
/// hop several times): a hop responds if it responded in either trace,
/// keeping the earlier measurement. Traces must cover the same router
/// sequence.
TracerouteResult MergeTraceroutes(const TracerouteResult& a,
                                  const TracerouteResult& b);

/// Stateful tool bundle; owns its noise RNG so measurement streams are
/// reproducible independently of topology generation.
class Tools {
 public:
  /// Multiplicative Gaussian jitter applied to ping RTTs and to a
  /// traceroute as a whole (tools take the min of several probes, so
  /// the residual error is small).
  static constexpr double kRttJitterFrac = 0.004;
  /// Extra per-hop jitter within one traceroute. Hops of the same
  /// trace share the path and its congestion, so their RTTs are
  /// strongly correlated; only this small residual is independent.
  static constexpr double kTraceHopJitterFrac = 0.004;
  /// Minimum reportable RTT, ms.
  static constexpr double kRttFloorMs = 0.02;
  /// Mean of the extra SYN-handling lag in a TCP ping (exponential).
  static constexpr double kTcpSynLagMeanMs = 0.4;
  /// Chance a responding router answers one particular traceroute
  /// probe. Per-trace silence is what makes the same peer's last valid
  /// hop differ across vantage points — the paper's unique-upstream
  /// filter drops most responsive peers because of exactly this.
  static constexpr double kTracePerProbeRespond = 0.87;

  /// King measurement failure probability (lost recursion, rate
  /// limiting, ...).
  static constexpr double kKingFailProb = 0.06;
  /// Occasional load spikes at the recursive servers: an extra
  /// exponential lag added with this probability (busy resolvers
  /// answer King queries late, inflating small measurements).
  static constexpr double kKingLagSpikeProb = 0.25;
  static constexpr double kKingLagSpikeMeanMs = 8.0;
  static constexpr double kKingJitterFrac = 0.09;
  /// Alternate-path shortcut model: some pairs see a shorter path
  /// than the common-router route (peering links, multihomed
  /// networks); the probability has a floor at every distance and
  /// grows with the path latency. DNS servers are well connected, so
  /// the effect is strong at large latencies (paper §3.1).
  static constexpr double kKingShortcutBaseProb = 0.3;
  static constexpr double kKingShortcutBaseMs = 15.0;
  static constexpr double kKingShortcutScaleMs = 160.0;
  static constexpr double kKingShortcutMaxProb = 0.6;
  static constexpr double kKingShortcutFactorLo = 0.2;
  static constexpr double kKingShortcutFactorHi = 0.8;

  Tools(const Topology& topology, util::Rng rng);

  /// ICMP ping host -> host. Fails when the destination does not
  /// respond to probes.
  std::optional<LatencyMs> Ping(NodeId from, NodeId to);

  /// Ping host -> router. Fails for routers that never respond.
  std::optional<LatencyMs> PingRouter(NodeId from, RouterId router);

  /// TCP connect latency to the Azureus port (the paper's "TCP-ping").
  std::optional<LatencyMs> TcpPing(NodeId from, NodeId to);

  /// rockettrace: hop list with annotations.
  TracerouteResult Traceroute(NodeId from, NodeId to);

  /// King estimate of the RTT between two recursive DNS servers.
  /// Fails for same-domain pairs (the recursion is never forwarded)
  /// and sporadically otherwise.
  std::optional<LatencyMs> King(NodeId server_a, NodeId server_b);

  const Topology& topology() const { return *topology_; }

 private:
  LatencyMs Jitter(LatencyMs true_ms, double frac);

  const Topology* topology_;
  util::Rng rng_;
};

}  // namespace np::net
