// The §3.1 DNS-server latency study: predicts latencies between
// same-cluster DNS server pairs from traceroute common routers + pings,
// measures them with King, and reports the prediction measure
// (predicted / measured) — Figs 3 and 4 — plus the intra- vs
// inter-domain latency comparison — Fig 5.
#pragma once

#include <optional>
#include <vector>

#include "measure/pop_inference.h"
#include "net/tools.h"
#include "util/rng.h"
#include "util/stats.h"

namespace np::measure {

/// Each server should appear in about this many same-cluster pairs.
inline constexpr int kPairsPerServer = 4;
/// Pairs with predicted latency above this are excluded (paper: "DNS
/// servers that are farther away will probably have alternate shorter
/// paths between them").
inline constexpr double kMaxPredictedMs = 100.0;
/// Pairs whose servers sit more than this many hops from the common
/// router / PoP are excluded.
inline constexpr int kMaxHopsFromCommon = 10;

enum class PairExclusion {
  kIncluded,
  kSameDomain,        // King unusable (recursion not forwarded)
  kNoTrace,           // a trace had no responding hops
  kNegativeLeg,       // ping subtraction went negative
  kTooManyHops,       // more than kMaxHopsFromCommon
  kPredictedTooLarge, // predicted > kMaxPredictedMs
  kKingFailed,        // the King measurement itself failed
};

struct DnsPairRecord {
  NodeId server_a = kInvalidNode;
  NodeId server_b = kInvalidNode;
  PairExclusion exclusion = PairExclusion::kIncluded;
  double predicted_ms = 0.0;
  double measured_ms = 0.0;
  /// predicted / measured (the paper's prediction measure).
  double ratio = 0.0;
  /// True when prediction went through a common router below the PoP
  /// (case (i)); false when it fell back to the PoP (case (ii)).
  bool via_common_router = false;
  int hops_a = 0;
  int hops_b = 0;
};

struct DnsStudyResult {
  /// All evaluated same-cluster pairs, included or not.
  std::vector<DnsPairRecord> pairs;
  /// Number of clusters (inferred PoPs with >= 2 servers).
  int num_clusters = 0;
  int num_servers_traced = 0;

  /// Included pairs' prediction measures (Fig 3 CDF input).
  std::vector<double> IncludedRatios() const;
  /// Fraction of included pairs with ratio in [lo, hi] (paper: ~65%
  /// within [0.5, 2]).
  double FractionWithin(double lo, double hi) const;

  /// Fig 4: per-bin percentiles of ratio vs predicted latency.
  util::BinnedScatter RatioVsPredicted(std::size_t bins = 12) const;

  /// Fig 5 inputs. Intra-domain pairs use predicted latencies (King is
  /// unusable); hop_cap restricts servers' distance from the common
  /// router (the paper plots caps 5 and 10).
  std::vector<double> IntraDomainLatencies(int hop_cap) const;
  std::vector<double> InterDomainMeasured() const;
  std::vector<double> InterDomainPredicted() const;
};

/// Runs the full §3.1 pipeline: traceroute every recursive server from
/// the measurement host (first vantage point), cluster by inferred
/// upstream PoP, build ~kPairsPerServer random same-cluster pairs,
/// plus every same-domain pair (for Fig 5), then predict and measure.
DnsStudyResult RunDnsStudy(const net::Topology& topology, net::Tools& tools,
                           util::Rng& rng);

}  // namespace np::measure
