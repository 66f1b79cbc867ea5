// Ablation E: cost of hosting the §5 key-value maps on a Chord DHT.
//
// §5: "The participant peers can themselves host the key-value maps
// ... using one of several distributed hash table designs". This
// quantifies it: Chord lookup hops vs ring size, plus the total
// routing hops a UCL or prefix directory spends registering a peer
// population and answering joins.
// Every table cell is a derived key (ring<n>_<column>,
// <directory>_chord_<column>), CI-gated against
// bench/baselines/BENCH_ablation_dht_cost_quick.json.
#include <cmath>

#include "bench/common.h"
#include "bench/reporter.h"
#include "dht/chord.h"
#include "mech/prefix_dir.h"
#include "mech/ucl.h"
#include "net/tools.h"
#include "util/stats.h"

#include "util/contract.h"

using np::NodeId;
using np::kInfiniteLatency;

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "ablation_dht_cost",
      "Not a paper figure. Chord lookups cost O(log n) hops; a UCL "
      "directory pays ~max_routers puts per join, the prefix directory "
      "exactly one.");

  const bool quick = np::bench::QuickScale();
  np::bench::Reporter reporter("ablation_dht_cost");

  // Part 1: lookup hops vs ring size.
  {
    np::util::Table table({"ring_size", "mean_hops", "p95_hops",
                           "log2(n)"});
    std::vector<int> ring_sizes{256, 1024, 4096};
    if (!quick) {
      ring_sizes.push_back(16384);
    }
    for (const int n : ring_sizes) {
      std::vector<NodeId> nodes;
      for (NodeId i = 0; i < n; ++i) {
        nodes.push_back(i);
      }
      const np::dht::ChordRing ring(nodes, np::dht::ChordConfig{});
      np::util::Rng rng(static_cast<std::uint64_t>(n));
      std::vector<double> hops;
      for (int q = 0; q < 2000; ++q) {
        hops.push_back(static_cast<double>(ring.Lookup(rng(), rng).hops));
      }
      const auto s = np::util::Summary::Of(hops);
      const double log2_n = std::log2(static_cast<double>(n));
      const std::string key = "ring" + std::to_string(n);
      reporter.Derive(key + "_mean_hops", s.mean);
      reporter.Derive(key + "_p95_hops", s.p95);
      reporter.Derive(key + "_log2_n", log2_n);
      table.AddNumericRow({static_cast<double>(n), s.mean, s.p95, log2_n}, 2);
    }
    np::bench::PrintTable(table);
  }

  // Part 2: directory costs over a real peer population.
  {
    np::net::TopologyConfig config = np::net::SmallTestConfig();
    config.azureus_hosts = quick ? 1500 : 6000;
    config.azureus_tcp_respond_prob = 1.0;
    config.azureus_trace_respond_prob = 1.0;
    np::util::Rng world_rng(7);
    const auto topology = np::net::Topology::Generate(config, world_rng);
    const auto peers =
        topology.HostsOfKind(np::net::HostKind::kAzureusPeer);

    np::util::Table table({"directory", "peers", "map_ops", "total_hops",
                           "hops_per_op"});
    const auto add_row = [&](const std::string& directory,
                             const np::mech::ChordMap& map) {
      const double peer_count = static_cast<double>(peers.size());
      const double ops = static_cast<double>(map.operation_count());
      const double total_hops = static_cast<double>(map.total_hops());
      const std::string key = directory + "_chord";
      reporter.Derive(key + "_peers", peer_count);
      reporter.Derive(key + "_map_ops", ops);
      reporter.Derive(key + "_total_hops", total_hops);
      reporter.Derive(key + "_hops_per_op", total_hops / ops);
      table.AddRow({directory + "(chord)", std::to_string(peers.size()),
                    std::to_string(map.operation_count()),
                    std::to_string(map.total_hops()),
                    np::util::FormatDouble(total_hops / ops, 2)});
    };
    {
      np::mech::ChordMap map(peers, 0xD1);
      np::mech::UclDirectory dir(map);
      np::util::Rng rng(8);
      for (NodeId peer : peers) {
        dir.RegisterPeer(topology, peer, rng);
      }
      for (int join = 0; join < 200; ++join) {
        (void)dir.Candidates(topology, peers[rng.Index(peers.size())], rng,
                             kInfiniteLatency);
      }
      add_row("ucl", map);
    }
    {
      np::mech::ChordMap map(peers, 0xD2);
      np::mech::PrefixDirectory dir(map, 24);
      np::util::Rng rng(9);
      for (NodeId peer : peers) {
        dir.RegisterPeer(topology, peer, rng);
      }
      for (int join = 0; join < 200; ++join) {
        (void)dir.Candidates(topology, peers[rng.Index(peers.size())], rng);
      }
      add_row("prefix24", map);
    }
    np::bench::PrintTable(table);
  }
  reporter.Write();
  return 0;
}
