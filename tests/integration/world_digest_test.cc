// Pins what the world generators, the measurement tools, the condition
// analyzers, the churn generator, the paper's §3 studies and the §5
// hybrids produce at their fixed calibration: every draw of a small
// topology, a fixed sequence of tool calls, the clustered, King-like
// and Euclidean matrices, both analyzer reports, a diurnal Poisson
// schedule, the DNS and Azureus studies, the close-peer sets and the
// prefix and registry hybrids' answers are folded into FNV-1a digests.
// Moving a calibration value or a fixed threshold, or reordering a
// draw, changes a digest; the paper-figure gate is the only other
// check of these outputs and it runs outside the test suite.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <optional>
#include <string>
#include <vector>

#include "core/churn.h"
#include "core/condition_analyzer.h"
#include "core/latency_space.h"
#include "matrix/generators.h"
#include "measure/azureus_study.h"
#include "measure/dns_study.h"
#include "measure/heuristic_eval.h"
#include "measure/path_graph.h"
#include "mech/hybrid.h"
#include "mech/topology_space.h"
#include "net/tools.h"
#include "net/topology.h"

namespace np {
namespace {

/// FNV-1a (64-bit) over the little-endian bytes of each folded word;
/// a double folds as its bit pattern, an optional as a presence flag
/// followed by its value.
class Fnv1a {
 public:
  void Fold(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Fold(std::uint32_t word) { Fold(static_cast<std::uint64_t>(word)); }
  void Fold(int word) { Fold(static_cast<std::uint64_t>(word)); }
  void Fold(bool flag) { Fold(static_cast<std::uint64_t>(flag)); }
  void Fold(double value) { Fold(std::bit_cast<std::uint64_t>(value)); }
  void Fold(const std::string& text) {
    Fold(static_cast<std::uint64_t>(text.size()));
    for (const char c : text) {
      Fold(static_cast<std::uint64_t>(c));
    }
  }
  void Fold(const std::optional<LatencyMs>& value) {
    Fold(value.has_value());
    if (value) {
      Fold(*value);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

net::Topology SmallTopology() {
  util::Rng rng(41);
  return net::Topology::Generate(net::SmallTestConfig(), rng);
}

TEST(WorldDigest, SmallTopologyIsPinned) {
  const net::Topology t = SmallTopology();
  Fnv1a d;
  for (const net::City& c : t.cities()) {
    d.Fold(c.x);
    d.Fold(c.y);
  }
  for (const net::As& a : t.ases()) {
    d.Fold(a.block_base);
  }
  for (const net::Pop& p : t.pops()) {
    d.Fold(p.as_id);
    d.Fold(p.city_id);
    d.Fold(p.core_router);
    d.Fold(p.region_base);
  }
  for (const net::Router& r : t.routers()) {
    d.Fold(r.pop_id);
    d.Fold(r.level);
    d.Fold(r.parent);
    d.Fold(r.parent_link_ms);
    d.Fold(r.name);
    d.Fold(r.annotated_as);
    d.Fold(r.annotated_city);
    d.Fold(r.responds);
    d.Fold(r.is_concentrator);
    d.Fold(r.home_base_ms);
  }
  for (const net::EndNetwork& e : t.endnets()) {
    d.Fold(e.pop_id);
    d.Fold(e.attach_router);
    d.Fold(e.gateway_router);
    d.Fold(e.access_ms);
    d.Fold(e.lan_ms);
    d.Fold(e.multicast_enabled);
    d.Fold(e.prefix_base);
  }
  for (const net::Host& h : t.hosts()) {
    d.Fold(static_cast<int>(h.kind));
    d.Fold(h.endnet_id);
    d.Fold(h.attach_router);
    d.Fold(h.access_ms);
    d.Fold(h.pop_id);
    d.Fold(h.ip);
    d.Fold(h.domain_id);
    d.Fold(h.dns_lag_mean_ms);
    d.Fold(h.responds_tcp);
    d.Fold(h.responds_traceroute);
  }
  for (const NodeId v : t.vantage_hosts()) {
    d.Fold(v);
  }
  const auto n = static_cast<NodeId>(t.hosts().size());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      d.Fold(t.LatencyBetween(a, b));
    }
  }
  EXPECT_EQ(d.value(), 0xaeace3a9254cc382ULL)
      << std::hex << "digest 0x" << d.value();
}

TEST(WorldDigest, ToolCallSequenceIsPinned) {
  const net::Topology t = SmallTopology();
  net::Tools tools(t, util::Rng(43));
  const auto peers = t.HostsOfKind(net::HostKind::kAzureusPeer);
  const auto dns = t.HostsOfKind(net::HostKind::kDnsRecursive);
  Fnv1a d;
  for (const NodeId v : t.vantage_hosts()) {
    for (std::size_t i = 0; i < peers.size(); i += 7) {
      d.Fold(tools.Ping(v, peers[i]));
      d.Fold(tools.TcpPing(v, peers[i]));
      const net::TracerouteResult trace = tools.Traceroute(v, peers[i]);
      for (const net::TracerouteHop& hop : trace.hops) {
        d.Fold(hop.router);
        d.Fold(hop.responded);
        d.Fold(hop.rtt_ms);
        d.Fold(hop.annotated_as);
        d.Fold(hop.annotated_city);
      }
      d.Fold(trace.dest_responded);
      d.Fold(trace.dest_rtt_ms);
    }
  }
  for (std::size_t i = 0; i < dns.size(); ++i) {
    for (std::size_t j = i + 1; j < dns.size(); j += 5) {
      d.Fold(tools.King(dns[i], dns[j]));
    }
  }
  EXPECT_EQ(d.value(), 0xd5ab6810e7651f64ULL)
      << std::hex << "digest 0x" << d.value();
}

void FoldMatrix(const matrix::LatencyMatrix& m, Fnv1a& d) {
  for (NodeId a = 0; a < m.size(); ++a) {
    for (NodeId b = 0; b < m.size(); ++b) {
      d.Fold(m.At(a, b));
    }
  }
}

matrix::ClusteredWorld SmallClusteredWorld() {
  matrix::ClusteredConfig config;
  config.num_clusters = 6;
  config.nets_per_cluster = 12;
  config.delta = 0.3;
  util::Rng rng(47);
  return matrix::GenerateClustered(config, rng);
}

TEST(WorldDigest, ClusteredWorldIsPinned) {
  const matrix::ClusteredWorld world = SmallClusteredWorld();
  Fnv1a d;
  FoldMatrix(world.matrix, d);
  for (NodeId p = 0; p < world.layout.peer_count(); ++p) {
    d.Fold(world.layout.ClusterOf(p));
    d.Fold(world.layout.NetOf(p));
    d.Fold(world.layout.HubLatencyOfPeer(p));
  }
  EXPECT_EQ(d.value(), 0x312b50567b229f79ULL)
      << std::hex << "digest 0x" << d.value();
}

TEST(WorldDigest, KingLikeMatricesArePinned) {
  util::Rng repaired_rng(53);
  Fnv1a repaired;
  FoldMatrix(matrix::GenerateKingLike(40, repaired_rng), repaired);
  EXPECT_EQ(repaired.value(), 0x3a59d7f3bc518d71ULL)
      << std::hex << "digest 0x" << repaired.value();

  util::Rng raw_rng(59);
  Fnv1a raw;
  FoldMatrix(matrix::GenerateKingLike(40, raw_rng, /*metric_repair=*/false),
             raw);
  EXPECT_EQ(raw.value(), 0x50e5860d1998e931ULL)
      << std::hex << "digest 0x" << raw.value();
}

TEST(WorldDigest, AnalyzerReportsArePinned) {
  // The clustered world's ratios jump at one gap scale; the Euclidean
  // world's vary smoothly, so they move with the scale grid and the
  // sample counts.
  const matrix::ClusteredWorld clustered = SmallClusteredWorld();
  util::Rng euclidean_rng(71);
  const matrix::EuclideanWorld euclidean =
      matrix::GenerateEuclidean(300, {}, euclidean_rng);
  Fnv1a d;
  for (const matrix::LatencyMatrix* m :
       {&clustered.matrix, &euclidean.matrix}) {
    const core::MatrixSpace space(*m);
    util::Rng growth_rng(61);
    const core::GrowthReport growth = core::AnalyzeGrowth(space, growth_rng);
    d.Fold(growth.median_ratio);
    d.Fold(growth.max_ratio);
    d.Fold(growth.nodes_sampled);
    for (const double quantile : {0.5, 0.2, 0.01}) {
      util::Rng doubling_rng(67);
      const core::DoublingReport doubling =
          core::AnalyzeDoubling(space, quantile, doubling_rng);
      d.Fold(doubling.mean_half_cover);
      d.Fold(doubling.max_half_cover);
      d.Fold(doubling.balls_sampled);
    }
  }
  EXPECT_EQ(d.value(), 0x9715f4822260719cULL)
      << std::hex << "digest 0x" << d.value();
}

TEST(WorldDigest, EuclideanWorldIsPinned) {
  matrix::EuclideanConfig config;
  config.dimensions = 2;
  util::Rng rng(73);
  const matrix::EuclideanWorld world =
      matrix::GenerateEuclidean(80, config, rng);
  Fnv1a d;
  FoldMatrix(world.matrix, d);
  for (const double c : world.coordinates) {
    d.Fold(c);
  }
  d.Fold(world.dimensions);
  EXPECT_EQ(d.value(), 0x78d755200184e8c2ULL)
      << std::hex << "digest 0x" << d.value();
}

TEST(WorldDigest, DiurnalPoissonScheduleIsPinned) {
  core::ChurnScheduleConfig config;
  config.duration_s = 400.0;
  config.events_per_s = 2.0;
  config.mean_session_s = 60.0;
  config.crash_fraction = 0.2;
  config.diurnal.day_s = 100.0;
  config.diurnal.amplitude = 0.6;
  config.diurnal.peak_frac = 0.25;
  config.seed = 79;
  const core::ChurnSchedule schedule = core::ChurnSchedule::Poisson(config);
  Fnv1a d;
  for (const core::ChurnEvent& event : schedule.events()) {
    d.Fold(event.time_s);
    d.Fold(static_cast<int>(event.type));
    d.Fold(static_cast<std::uint64_t>(event.join_of));
    d.Fold(event.node);
  }
  EXPECT_EQ(d.value(), 0xeefe35cee6024b6aULL)
      << std::hex << "digest 0x" << d.value();
}

/// SmallTestConfig with deeper aggregation trees over more cities, so
/// that some DNS server pairs sit beyond the study's hop and latency
/// caps.
net::Topology DnsTopology() {
  net::TopologyConfig config = net::SmallTestConfig();
  config.num_cities = 40;
  config.agg_levels = 7;
  util::Rng rng(41);
  return net::Topology::Generate(config, rng);
}

TEST(WorldDigest, DnsStudyIsPinned) {
  const net::Topology t = DnsTopology();
  net::Tools tools(t, util::Rng(83));
  util::Rng rng(89);
  const measure::DnsStudyResult result =
      measure::RunDnsStudy(t, tools, rng);
  Fnv1a d;
  d.Fold(result.num_clusters);
  d.Fold(result.num_servers_traced);
  for (const measure::DnsPairRecord& pair : result.pairs) {
    d.Fold(pair.server_a);
    d.Fold(pair.server_b);
    d.Fold(static_cast<int>(pair.exclusion));
    d.Fold(pair.predicted_ms);
    d.Fold(pair.measured_ms);
    d.Fold(pair.ratio);
    d.Fold(pair.via_common_router);
    d.Fold(pair.hops_a);
    d.Fold(pair.hops_b);
  }
  EXPECT_EQ(d.value(), 0x1e41a167f6fc842eULL)
      << std::hex << "digest 0x" << d.value();
}

TEST(WorldDigest, AzureusStudyIsPinned) {
  const net::Topology t = SmallTopology();
  net::Tools tools(t, util::Rng(97));
  const measure::AzureusStudyResult result = measure::RunAzureusStudy(t, tools);
  Fnv1a d;
  d.Fold(result.total_ips);
  d.Fold(result.responsive);
  d.Fold(result.unique_upstream);
  for (const measure::AzureusCluster& cluster : result.clusters) {
    d.Fold(cluster.hub);
    for (const NodeId peer : cluster.peers) {
      d.Fold(peer);
    }
    for (const LatencyMs latency : cluster.hub_latencies) {
      d.Fold(latency);
    }
    for (const NodeId peer : cluster.pruned_peers) {
      d.Fold(peer);
    }
    for (const LatencyMs latency : cluster.pruned_latencies) {
      d.Fold(latency);
    }
  }
  EXPECT_EQ(d.value(), 0x01e1f01b7787b6c7ULL)
      << std::hex << "digest 0x" << d.value();
}

TEST(WorldDigest, CloseSetsArePinned) {
  const net::Topology t = SmallTopology();
  net::Tools tools(t, util::Rng(101));
  const measure::PathGraph graph = measure::PathGraph::Build(
      t, tools, t.HostsOfKind(net::HostKind::kAzureusPeer));
  const measure::CloseSets sets = measure::ComputeCloseSets(graph);
  Fnv1a d;
  for (std::size_t i = 0; i < sets.peers.size(); ++i) {
    d.Fold(sets.peers[i]);
    for (const measure::PathGraph::Reach& reach : sets.close[i]) {
      d.Fold(reach.peer);
      d.Fold(reach.latency_ms);
      d.Fold(reach.router_hops);
    }
  }
  EXPECT_EQ(d.value(), 0x3f75b30adf854759ULL)
      << std::hex << "digest 0x" << d.value();
}

/// Folds a mechanism-only hybrid's answers: two thirds of the small
/// topology's peers join, the rest are queried.
std::uint64_t HybridDigest(mech::Mechanism mechanism) {
  const net::Topology t = SmallTopology();
  const mech::TopologySpace space(t);
  std::vector<NodeId> peers = t.HostsOfKind(net::HostKind::kAzureusPeer);
  util::Rng rng(103);
  rng.Shuffle(peers);
  const std::size_t joined = peers.size() * 2 / 3;
  mech::HybridNearest hybrid(t, mechanism, nullptr);
  hybrid.Build(space, {peers.begin(), peers.begin() + joined}, rng);
  const core::MeteredSpace metered(space);
  Fnv1a d;
  for (std::size_t i = joined; i < peers.size(); ++i) {
    const std::uint64_t before = metered.probes();
    const core::QueryResult result =
        hybrid.FindNearest(peers[i], metered, rng);
    d.Fold(result.found);
    d.Fold(result.found_latency_ms);
    d.Fold(metered.probes() - before);
  }
  d.Fold(hybrid.mechanism_hit_rate());
  return d.value();
}

TEST(WorldDigest, HybridPrefixOutcomesArePinned) {
  const std::uint64_t digest = HybridDigest(mech::Mechanism::kPrefix);
  EXPECT_EQ(digest, 0xb94d7823761a6f8bULL)
      << std::hex << "digest 0x" << digest;
}

TEST(WorldDigest, HybridRegistryOutcomesArePinned) {
  const std::uint64_t digest = HybridDigest(mech::Mechanism::kRegistry);
  EXPECT_EQ(digest, 0x8450f5881d041f7aULL)
      << std::hex << "digest 0x" << digest;
}

}  // namespace
}  // namespace np
