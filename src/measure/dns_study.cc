#include "measure/dns_study.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/error.h"

namespace np::measure {

namespace {

/// One server's view needed repeatedly during pair evaluation.
struct ServerTrace {
  NodeId server = kInvalidNode;
  net::TracerouteResult trace;
  std::optional<InferredPop> pop;
};

struct PairPrediction {
  PairExclusion exclusion = PairExclusion::kIncluded;
  double predicted_ms = 0.0;
  bool via_common_router = false;
  int hops_a = 0;
  int hops_b = 0;
};

/// Implements the paper's two-case prediction: through the deepest
/// common router when the traces share one below the PoP, otherwise
/// through the (closest upstream) PoP with per-trace PoP routers.
PairPrediction PredictPairLatency(const net::Topology& topology,
                                  net::Tools& tools, NodeId measurement_host,
                                  const ServerTrace& a,
                                  const ServerTrace& b) {
  PairPrediction out;
  if (!a.pop.has_value() || !b.pop.has_value()) {
    out.exclusion = PairExclusion::kNoTrace;
    return out;
  }
  (void)topology;

  RouterId router_a = kInvalidRouter;
  RouterId router_b = kInvalidRouter;
  int hop_idx_a = -1;
  int hop_idx_b = -1;

  const RouterId common = DeepestCommonRouter(a.trace, b.trace);
  if (common != kInvalidRouter) {
    out.via_common_router = true;
    router_a = common;
    router_b = common;
    for (int i = static_cast<int>(a.trace.hops.size()) - 1; i >= 0; --i) {
      if (a.trace.hops[static_cast<std::size_t>(i)].router == common) {
        hop_idx_a = i;
        break;
      }
    }
    for (int i = static_cast<int>(b.trace.hops.size()) - 1; i >= 0; --i) {
      if (b.trace.hops[static_cast<std::size_t>(i)].router == common) {
        hop_idx_b = i;
        break;
      }
    }
  } else {
    // Case (ii): no shared router; use each trace's deepest router
    // annotated with the cluster PoP ("routers in a PoP are quite
    // close together").
    hop_idx_a = DeepestHopOfPop(a.trace, *a.pop);
    hop_idx_b = DeepestHopOfPop(b.trace, *b.pop);
    if (hop_idx_a < 0 || hop_idx_b < 0) {
      out.exclusion = PairExclusion::kNoTrace;
      return out;
    }
    router_a = a.trace.hops[static_cast<std::size_t>(hop_idx_a)].router;
    router_b = b.trace.hops[static_cast<std::size_t>(hop_idx_b)].router;
  }

  out.hops_a = HopsFromDestination(a.trace, hop_idx_a);
  out.hops_b = HopsFromDestination(b.trace, hop_idx_b);

  const auto ping_a = tools.Ping(measurement_host, a.server);
  const auto ping_b = tools.Ping(measurement_host, b.server);
  const auto ping_ra = tools.PingRouter(measurement_host, router_a);
  const auto ping_rb = tools.PingRouter(measurement_host, router_b);
  if (!ping_a || !ping_b || !ping_ra || !ping_rb) {
    out.exclusion = PairExclusion::kNoTrace;
    return out;
  }
  const double leg_a = *ping_a - *ping_ra;
  const double leg_b = *ping_b - *ping_rb;
  if (leg_a < 0.0 || leg_b < 0.0) {
    out.exclusion = PairExclusion::kNegativeLeg;
    return out;
  }
  out.predicted_ms = leg_a + leg_b;
  return out;
}

}  // namespace

std::vector<double> DnsStudyResult::IncludedRatios() const {
  std::vector<double> out;
  for (const DnsPairRecord& p : pairs) {
    if (p.exclusion == PairExclusion::kIncluded) {
      out.push_back(p.ratio);
    }
  }
  return out;
}

double DnsStudyResult::FractionWithin(double lo, double hi) const {
  const auto ratios = IncludedRatios();
  if (ratios.empty()) {
    return 0.0;
  }
  std::size_t inside = 0;
  for (double r : ratios) {
    if (r >= lo && r <= hi) {
      ++inside;
    }
  }
  return static_cast<double>(inside) / static_cast<double>(ratios.size());
}

util::BinnedScatter DnsStudyResult::RatioVsPredicted(std::size_t bins) const {
  auto scatter = util::BinnedScatter::LogBins(0.5, 100.0, bins);
  for (const DnsPairRecord& p : pairs) {
    if (p.exclusion == PairExclusion::kIncluded) {
      scatter.Add(p.predicted_ms, p.ratio);
    }
  }
  return scatter;
}

std::vector<double> DnsStudyResult::IntraDomainLatencies(int hop_cap) const {
  std::vector<double> out;
  for (const DnsPairRecord& p : pairs) {
    if (p.exclusion == PairExclusion::kSameDomain && p.predicted_ms > 0.0 &&
        p.hops_a <= hop_cap && p.hops_b <= hop_cap) {
      out.push_back(p.predicted_ms);
    }
  }
  return out;
}

std::vector<double> DnsStudyResult::InterDomainMeasured() const {
  std::vector<double> out;
  for (const DnsPairRecord& p : pairs) {
    if ((p.exclusion == PairExclusion::kIncluded ||
         p.exclusion == PairExclusion::kPredictedTooLarge) &&
        p.measured_ms > 0.0) {
      out.push_back(p.measured_ms);
    }
  }
  return out;
}

std::vector<double> DnsStudyResult::InterDomainPredicted() const {
  std::vector<double> out;
  for (const DnsPairRecord& p : pairs) {
    if ((p.exclusion == PairExclusion::kIncluded ||
         p.exclusion == PairExclusion::kPredictedTooLarge) &&
        p.measured_ms > 0.0) {
      out.push_back(p.predicted_ms);
    }
  }
  return out;
}

DnsStudyResult RunDnsStudy(const net::Topology& topology, net::Tools& tools,
                           util::Rng& rng) {
  static_assert(kPairsPerServer >= 1, "need at least one pair/server");
  NP_ENSURE(!topology.vantage_hosts().empty(), "no measurement host");
  const NodeId measurement_host = topology.vantage_hosts().front();

  const std::vector<NodeId> servers =
      topology.HostsOfKind(net::HostKind::kDnsRecursive);
  NP_ENSURE(servers.size() >= 2, "DNS study needs at least two servers");

  DnsStudyResult result;

  // Trace every server once and group by inferred upstream PoP.
  std::vector<ServerTrace> traces(servers.size());
  // Ordered map: the pairing loop below consumes the rng stream and
  // appends pairs per cluster, so cluster visit order is part of the
  // report (determinism contract rule 1, NPL001).
  std::map<std::uint64_t, std::vector<std::size_t>> clusters;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    traces[i].server = servers[i];
    // rockettrace probes each hop repeatedly; two passes merged
    // recover hops that were silent on one probe.
    traces[i].trace = net::MergeTraceroutes(
        tools.Traceroute(measurement_host, servers[i]),
        tools.Traceroute(measurement_host, servers[i]));
    traces[i].pop = ClosestUpstreamPop(traces[i].trace);
    if (traces[i].pop.has_value()) {
      clusters[traces[i].pop->Key()].push_back(i);
      ++result.num_servers_traced;
    }
  }

  // Same-cluster random pairs, ~kPairsPerServer each (§3.1: "randomly
  // pick pairs ... such that each DNS server appears in about 4
  // pairs") — one pairing round pairs up a shuffle of the cluster.
  std::set<std::pair<std::size_t, std::size_t>> seen;
  std::vector<std::pair<std::size_t, std::size_t>> pair_indices;
  for (auto& [key, members] : clusters) {
    if (members.size() < 2) {
      continue;
    }
    ++result.num_clusters;
    for (int round = 0; round < kPairsPerServer; ++round) {
      rng.Shuffle(members);
      for (std::size_t k = 0; k + 1 < members.size(); k += 2) {
        auto pair = std::minmax(members[k], members[k + 1]);
        if (seen.insert({pair.first, pair.second}).second) {
          pair_indices.push_back({pair.first, pair.second});
        }
      }
    }
  }
  // Every same-domain pair as well (Fig 5's intra-domain population).
  {
    // Ordered for the same reason as `clusters`: pair_indices order
    // feeds the report.
    std::map<int, std::vector<std::size_t>> by_domain;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      by_domain[topology.host(servers[i]).domain_id].push_back(i);
    }
    for (const auto& [domain, members] : by_domain) {
      for (std::size_t x = 0; x < members.size(); ++x) {
        for (std::size_t y = x + 1; y < members.size(); ++y) {
          auto pair = std::minmax(members[x], members[y]);
          if (seen.insert({pair.first, pair.second}).second) {
            pair_indices.push_back({pair.first, pair.second});
          }
        }
      }
    }
  }

  // Evaluate.
  result.pairs.reserve(pair_indices.size());
  for (const auto& [ia, ib] : pair_indices) {
    const ServerTrace& a = traces[ia];
    const ServerTrace& b = traces[ib];
    DnsPairRecord record;
    record.server_a = a.server;
    record.server_b = b.server;

    const PairPrediction prediction =
        PredictPairLatency(topology, tools, measurement_host, a, b);
    record.predicted_ms = prediction.predicted_ms;
    record.via_common_router = prediction.via_common_router;
    record.hops_a = prediction.hops_a;
    record.hops_b = prediction.hops_b;

    const bool same_domain = topology.host(a.server).domain_id ==
                             topology.host(b.server).domain_id;

    if (prediction.exclusion != PairExclusion::kIncluded) {
      record.exclusion = prediction.exclusion;
    } else if (same_domain) {
      record.exclusion = PairExclusion::kSameDomain;
    } else if (prediction.hops_a > kMaxHopsFromCommon ||
               prediction.hops_b > kMaxHopsFromCommon) {
      record.exclusion = PairExclusion::kTooManyHops;
    } else {
      const auto measured = tools.King(a.server, b.server);
      if (!measured.has_value()) {
        record.exclusion = PairExclusion::kKingFailed;
      } else {
        record.measured_ms = *measured;
        record.ratio = record.predicted_ms / std::max(*measured, 1e-6);
        record.exclusion =
            record.predicted_ms > kMaxPredictedMs
                ? PairExclusion::kPredictedTooLarge
                : PairExclusion::kIncluded;
      }
    }
    result.pairs.push_back(record);
  }
  return result;
}

}  // namespace np::measure
