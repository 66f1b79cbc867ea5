#include "measure/heuristic_eval.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "net/ip.h"
#include "util/error.h"

namespace np::measure {

int CloseSets::PopulationSize() const {
  int population = 0;
  for (const auto& c : close) {
    if (!c.empty()) {
      ++population;
    }
  }
  return population;
}

CloseSets ComputeCloseSets(const PathGraph& graph) {
  static_assert(kCloseMs > 0.0, "close threshold must be positive");
  CloseSets sets;
  sets.peers = graph.peers();
  sets.close.reserve(sets.peers.size());
  for (NodeId peer : sets.peers) {
    sets.close.push_back(graph.ClosePeers(peer, kCloseMs));
  }
  return sets;
}

util::BinnedScatter HopLengthVsLatency(const CloseSets& sets,
                                       double max_latency_ms,
                                       std::size_t bins) {
  auto scatter = util::BinnedScatter::LinearBins(0.0, max_latency_ms, bins);
  for (std::size_t i = 0; i < sets.peers.size(); ++i) {
    const NodeId self = sets.peers[i];
    for (const PathGraph::Reach& reach : sets.close[i]) {
      // Count each unordered pair once.
      if (reach.peer > self) {
        scatter.Add(reach.latency_ms, static_cast<double>(reach.router_hops));
      }
    }
  }
  return scatter;
}

std::vector<PrefixRates> EvaluatePrefixHeuristic(
    const net::Topology& topology, const CloseSets& sets, int min_bits,
    int max_bits) {
  NP_ENSURE(min_bits >= 1 && max_bits <= 32 && min_bits <= max_bits,
            "invalid prefix range");
  const std::size_t n = sets.peers.size();

  std::vector<PrefixRates> out;
  for (int bits = min_bits; bits <= max_bits; ++bits) {
    // Bucket the whole peer set by prefix value.
    std::unordered_map<std::uint32_t, int> bucket_size;
    std::vector<std::uint32_t> prefix(n);
    for (std::size_t i = 0; i < n; ++i) {
      prefix[i] = net::PrefixOf(topology.host(sets.peers[i]).ip, bits);
      ++bucket_size[prefix[i]];
    }

    std::vector<double> fp_rates;
    std::vector<double> fn_rates;
    double candidate_sum = 0.0;
    int population = 0;

    for (std::size_t i = 0; i < n; ++i) {
      const auto& close = sets.close[i];
      if (close.empty()) {
        continue;  // not in the Fig 11 population
      }
      ++population;
      const int same_prefix_total = bucket_size[prefix[i]] - 1;
      candidate_sum += same_prefix_total;

      // Close peers sharing the prefix.
      int close_sharing = 0;
      for (const PathGraph::Reach& reach : close) {
        const std::uint32_t other =
            net::PrefixOf(topology.host(reach.peer).ip, bits);
        if (other == prefix[i]) {
          ++close_sharing;
        }
      }
      const int close_total = static_cast<int>(close.size());
      const int far_total = static_cast<int>(n) - 1 - close_total;
      const int far_sharing = same_prefix_total - close_sharing;

      // FP: far peers that share the prefix / all far peers.
      if (far_total > 0) {
        fp_rates.push_back(static_cast<double>(far_sharing) / far_total);
      }
      // FN: close peers that do NOT share the prefix / all close peers.
      fn_rates.push_back(
          static_cast<double>(close_total - close_sharing) / close_total);
    }

    PrefixRates rates;
    rates.prefix_bits = bits;
    rates.median_false_positive =
        fp_rates.empty() ? 0.0 : util::Percentile(std::move(fp_rates), 50.0);
    rates.median_false_negative =
        fn_rates.empty() ? 0.0 : util::Percentile(std::move(fn_rates), 50.0);
    rates.mean_candidates =
        population == 0 ? 0.0 : candidate_sum / population;
    out.push_back(rates);
  }
  return out;
}

}  // namespace np::measure
