// Ablation C: the §5 mechanisms against latency-only search, on the
// synthetic Internet (not a matrix world — the mechanisms need routers
// and IP addresses).
//
// §5: "the three approaches would be used in conjunction with existing
// near-peer finding algorithms to obtain maximum accuracy". We measure
// Meridian alone, each mechanism alone, and mechanism+Meridian hybrids:
// exact-closest rate, same-end-network rate, mean latency of the found
// peer, probe cost, and the mechanism hit rate.
// Every table cell is a derived key <scheme>_<column>, CI-gated against
// bench/baselines/BENCH_ablation_mechanisms_quick.json. Evaluate walks
// every held-out target once and scores same-end-network on the router
// topology, which the shared query kernel does not express.
#include <memory>
#include <utility>

#include "algos/registry.h"
#include "bench/common.h"
#include "bench/reporter.h"
#include "core/experiment.h"
#include "mech/hybrid.h"

#include "util/contract.h"

namespace {

using np::NodeId;

struct Score {
  double p_exact = 0.0;
  double p_same_net = 0.0;
  double mean_found_ms = 0.0;
  double mean_probes = 0.0;
};

Score Evaluate(np::core::NearestPeerAlgorithm& algo,
               const np::mech::TopologySpace& space,
               const std::vector<NodeId>& members,
               const std::vector<NodeId>& targets, std::uint64_t seed) {
  np::util::Rng rng(seed);
  np::util::Rng build_rng(seed ^ 0xB111D);
  algo.Build(space, members, build_rng);
  const np::core::MeteredSpace metered(space);
  const np::net::Topology& topology = space.topology();

  Score score;
  for (NodeId target : targets) {
    metered.ResetProbes();
    const auto result = algo.FindNearest(target, metered, rng);
    const NodeId truth =
        np::core::TrueClosestMember(space, members, target);
    const double found_latency = space.Latency(result.found, target);
    if (found_latency <= space.Latency(truth, target) + 1e-9) {
      score.p_exact += 1.0;
    }
    const auto& ht = topology.host(target);
    const auto& hf = topology.host(result.found);
    if (ht.endnet_id >= 0 && ht.endnet_id == hf.endnet_id) {
      score.p_same_net += 1.0;
    }
    score.mean_found_ms += found_latency;
    score.mean_probes += static_cast<double>(metered.probes());
  }
  const double n = static_cast<double>(targets.size());
  score.p_exact /= n;
  score.p_same_net /= n;
  score.mean_found_ms /= n;
  score.mean_probes /= n;
  return score;
}

}  // namespace

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "ablation_mechanisms",
      "Not a paper figure (extends §5's preliminary evaluation): "
      "UCL/prefix hybrids recover the extreme-nearby peers that "
      "latency-only Meridian misses; multicast/registry help only "
      "where deployed.");

  const bool quick = np::bench::QuickScale();
  np::net::TopologyConfig config = np::net::SmallTestConfig();
  config.num_cities = 20;
  config.num_ases = 12;
  config.min_pops_per_as = 2;
  config.max_pops_per_as = 5;
  config.agg_levels = 3;
  config.endnets_per_pop_min = 4;
  config.endnets_per_pop_max = 16;
  config.dns_recursive_hosts = 0;
  config.azureus_hosts = quick ? 2000 : 5000;
  // Overlay participants cooperate: they answer probes.
  config.azureus_tcp_respond_prob = 1.0;
  config.azureus_trace_respond_prob = 1.0;
  np::util::Rng world_rng(1);
  const auto topology = np::net::Topology::Generate(config, world_rng);
  const np::mech::TopologySpace space(topology);

  auto peers = topology.HostsOfKind(np::net::HostKind::kAzureusPeer);
  np::util::Rng split_rng(2);
  split_rng.Shuffle(peers);
  const int num_targets = quick ? 150 : 300;
  std::vector<NodeId> targets(peers.end() - num_targets, peers.end());
  std::vector<NodeId> members(peers.begin(), peers.end() - num_targets);

  np::bench::Reporter reporter("ablation_mechanisms");
  np::util::Table table({"scheme", "p_exact", "p_same_net", "found_ms",
                         "probes", "mech_hit_rate"});

  const auto add_row = [&](const std::string& name, const Score& s,
                           double hit_rate) {
    reporter.Derive(name + "_p_exact", s.p_exact);
    reporter.Derive(name + "_p_same_net", s.p_same_net);
    reporter.Derive(name + "_found_ms", s.mean_found_ms);
    reporter.Derive(name + "_probes", s.mean_probes);
    reporter.Derive(name + "_mech_hit_rate", hit_rate);
    table.AddRow({name, np::util::FormatDouble(s.p_exact, 3),
                  np::util::FormatDouble(s.p_same_net, 3),
                  np::util::FormatDouble(s.mean_found_ms, 3),
                  np::util::FormatDouble(s.mean_probes, 1),
                  np::util::FormatDouble(hit_rate, 3)});
  };

  {
    auto meridian = np::algos::MakeAlgorithm("meridian");
    add_row("meridian",
            Evaluate(*meridian, space, members, targets, 100), 0.0);
  }
  for (const auto mechanism :
       {np::mech::Mechanism::kUcl, np::mech::Mechanism::kPrefix,
        np::mech::Mechanism::kMulticast, np::mech::Mechanism::kRegistry}) {
    {
      np::mech::HybridNearest alone(topology, mechanism, nullptr);
      const Score s = Evaluate(alone, space, members, targets, 200);
      add_row(std::string(np::mech::MechanismName(mechanism)) + "-only", s,
              alone.mechanism_hit_rate());
    }
    {
      auto fallback = np::algos::MakeAlgorithm("meridian");
      np::mech::HybridNearest hybrid(topology, mechanism, std::move(fallback));
      const Score s = Evaluate(hybrid, space, members, targets, 300);
      add_row(std::string(np::mech::MechanismName(mechanism)) + "+meridian",
              s, hybrid.mechanism_hit_rate());
    }
  }
  np::bench::PrintTable(table);
  np::bench::PrintNote(
      "mech_hit_rate = queries answered by the mechanism without "
      "falling back (candidate within 1 ms).");
  reporter.Write();
  return 0;
}
