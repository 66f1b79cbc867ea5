// Pins what the world generators, the measurement tools and the
// condition analyzers produce at their fixed calibration: every draw of
// a small topology, a fixed sequence of tool calls, the clustered and
// King-like matrices and both analyzer reports are folded into FNV-1a
// digests. Moving a calibration value, or reordering a draw, changes a
// digest; the paper-figure gate is the only other check of these
// outputs and it runs outside the test suite.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <optional>
#include <string>

#include "core/condition_analyzer.h"
#include "core/latency_space.h"
#include "matrix/generators.h"
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

}  // namespace
}  // namespace np
