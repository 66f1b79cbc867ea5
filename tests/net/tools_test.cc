#include "net/tools.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.h"

namespace np::net {
namespace {

struct ToolsFixture {
  ToolsFixture(std::uint64_t seed, TopologyConfig config = SmallTestConfig())
      : rng(seed),
        topology(Topology::Generate(config, rng)),
        tools(topology, util::Rng(seed ^ 0xABCD)) {}

  util::Rng rng;
  Topology topology;
  Tools tools;
};

TEST(PingTool, TracksTrueLatencyWithinJitter) {
  ToolsFixture f(1);
  const auto dns = f.topology.HostsOfKind(HostKind::kDnsRecursive);
  ASSERT_GE(dns.size(), 2u);
  for (std::size_t i = 0; i + 1 < dns.size() && i < 40; i += 2) {
    const auto measured = f.tools.Ping(dns[i], dns[i + 1]);
    ASSERT_TRUE(measured.has_value());
    const LatencyMs truth = f.topology.LatencyBetween(dns[i], dns[i + 1]);
    EXPECT_NEAR(*measured, truth, 0.15 * truth + 0.1);
  }
}

TEST(PingTool, UnresponsiveHostFails) {
  ToolsFixture f(2);
  NodeId deaf = kInvalidNode;
  NodeId source = kInvalidNode;
  for (const Host& h : f.topology.hosts()) {
    if (!h.responds_traceroute && deaf == kInvalidNode) {
      deaf = h.id;
    }
    if (h.kind == HostKind::kVantage && source == kInvalidNode) {
      source = h.id;
    }
  }
  ASSERT_NE(deaf, kInvalidNode);
  ASSERT_NE(source, kInvalidNode);
  EXPECT_FALSE(f.tools.Ping(source, deaf).has_value());
}

TEST(PingRouterTool, RespectsRouterResponsiveness) {
  ToolsFixture f(3);
  const NodeId v = f.topology.vantage_hosts()[0];
  int responded = 0;
  int silent = 0;
  for (const Router& r : f.topology.routers()) {
    const auto measured = f.tools.PingRouter(v, r.id);
    if (r.responds) {
      ASSERT_TRUE(measured.has_value());
      const LatencyMs truth = f.topology.LatencyToRouter(v, r.id);
      EXPECT_NEAR(*measured, truth, 0.15 * truth + 0.1);
      ++responded;
    } else {
      EXPECT_FALSE(measured.has_value());
      ++silent;
    }
  }
  EXPECT_GT(responded, 0);
  EXPECT_GT(silent, 0);
}

TEST(TcpPingTool, AddsSynLagAndRespectsFlag) {
  ToolsFixture f(4);
  const NodeId v = f.topology.vantage_hosts()[0];
  int measured_count = 0;
  for (const Host& h : f.topology.hosts()) {
    if (h.kind != HostKind::kAzureusPeer) {
      continue;
    }
    const auto measured = f.tools.TcpPing(v, h.id);
    EXPECT_EQ(measured.has_value(), h.responds_tcp);
    if (measured) {
      // SYN lag is non-negative: measurement at least ~truth.
      const LatencyMs truth = f.topology.LatencyBetween(v, h.id);
      EXPECT_GT(*measured, truth * 0.8);
      ++measured_count;
    }
  }
  EXPECT_GT(measured_count, 0);
}

TEST(TracerouteTool, HopsFollowRouterPath) {
  ToolsFixture f(5);
  const NodeId v = f.topology.vantage_hosts()[0];
  const auto dns = f.topology.HostsOfKind(HostKind::kDnsRecursive);
  ASSERT_FALSE(dns.empty());
  const NodeId dest = dns[0];
  const auto trace = f.tools.Traceroute(v, dest);
  const auto path = f.topology.RouterPath(v, dest);
  ASSERT_EQ(trace.hops.size(), path.size());
  for (std::size_t i = 0; i < path.size(); ++i) {
    EXPECT_EQ(trace.hops[i].router, path[i].router);
    if (trace.hops[i].responded) {
      EXPECT_NEAR(trace.hops[i].rtt_ms, path[i].rtt_from_source_ms,
                  0.2 * path[i].rtt_from_source_ms + 0.15);
    } else {
      EXPECT_EQ(trace.hops[i].annotated_as, -1);
    }
  }
}

TEST(TracerouteTool, AnnotationsMatchRouterOwnership) {
  ToolsFixture f(6);
  const NodeId v = f.topology.vantage_hosts()[1];
  const auto dns = f.topology.HostsOfKind(HostKind::kDnsRecursive);
  int annotated = 0;
  for (std::size_t i = 0; i < 30 && i < dns.size(); ++i) {
    const auto trace = f.tools.Traceroute(v, dns[i]);
    for (const TracerouteHop& hop : trace.hops) {
      if (!hop.responded) {
        continue;
      }
      const Router& r = f.topology.router(hop.router);
      EXPECT_EQ(hop.annotated_as, r.annotated_as);
      EXPECT_EQ(hop.annotated_city, r.annotated_city);
      ++annotated;
    }
  }
  EXPECT_GT(annotated, 0);
}

TEST(TracerouteTool, LastValidHopSkipsSilentRouters) {
  TracerouteResult result;
  EXPECT_EQ(result.LastValidHop(), -1);
  result.hops.resize(3);
  result.hops[0].responded = true;
  result.hops[1].responded = true;
  result.hops[2].responded = false;
  EXPECT_EQ(result.LastValidHop(), 1);
}

TEST(KingTool, FailsForSameDomainPairs) {
  ToolsFixture f(7);
  const auto dns = f.topology.HostsOfKind(HostKind::kDnsRecursive);
  bool found_pair = false;
  for (std::size_t i = 0; i < dns.size() && !found_pair; ++i) {
    for (std::size_t j = i + 1; j < dns.size() && !found_pair; ++j) {
      if (f.topology.host(dns[i]).domain_id ==
          f.topology.host(dns[j]).domain_id) {
        EXPECT_FALSE(f.tools.King(dns[i], dns[j]).has_value());
        found_pair = true;
      }
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(KingTool, InflatesSmallLatenciesByLag) {
  // For nearby server pairs the processing lag dominates: the King
  // estimate should exceed the true latency on average (§3.1).
  ToolsFixture f(8);
  const auto dns = f.topology.HostsOfKind(HostKind::kDnsRecursive);
  double bias_sum = 0.0;
  int count = 0;
  for (std::size_t i = 0; i < dns.size(); ++i) {
    for (std::size_t j = i + 1; j < dns.size(); ++j) {
      const LatencyMs truth = f.topology.LatencyBetween(dns[i], dns[j]);
      if (truth > 5.0) {
        continue;  // only nearby pairs
      }
      const auto measured = f.tools.King(dns[i], dns[j]);
      if (!measured) {
        continue;
      }
      bias_sum += *measured - truth;
      ++count;
    }
  }
  ASSERT_GT(count, 3);
  EXPECT_GT(bias_sum / count, 0.5);
}

TEST(KingTool, ShortcutsLargeLatencies) {
  // For distant pairs, alternate paths make the measurement fall below
  // the common-router prediction sufficiently often.
  ToolsFixture f(9);
  const auto dns = f.topology.HostsOfKind(HostKind::kDnsRecursive);
  int below = 0;
  int total = 0;
  for (std::size_t i = 0; i < dns.size() && total < 400; ++i) {
    for (std::size_t j = i + 1; j < dns.size() && total < 400; ++j) {
      const LatencyMs truth = f.topology.LatencyBetween(dns[i], dns[j]);
      if (truth < 60.0) {
        continue;
      }
      const auto measured = f.tools.King(dns[i], dns[j]);
      if (!measured) {
        continue;
      }
      ++total;
      if (*measured < truth * 0.95) {
        ++below;
      }
    }
  }
  ASSERT_GT(total, 20);
  EXPECT_GT(static_cast<double>(below) / total, 0.05);
}

TEST(KingTool, RejectsNonDnsHosts) {
  ToolsFixture f(10);
  const auto peers = f.topology.HostsOfKind(HostKind::kAzureusPeer);
  const auto dns = f.topology.HostsOfKind(HostKind::kDnsRecursive);
  ASSERT_FALSE(peers.empty());
  ASSERT_FALSE(dns.empty());
  EXPECT_THROW(f.tools.King(peers[0], dns[0]), util::Error);
}

TEST(ToolsDeterminism, SameSeedSameMeasurements) {
  util::Rng rng_a(11);
  util::Rng rng_b(11);
  const Topology topo_a = Topology::Generate(SmallTestConfig(), rng_a);
  const Topology topo_b = Topology::Generate(SmallTestConfig(), rng_b);
  Tools tools_a(topo_a, util::Rng(99));
  Tools tools_b(topo_b, util::Rng(99));
  const auto dns_a = topo_a.HostsOfKind(HostKind::kDnsRecursive);
  const auto dns_b = topo_b.HostsOfKind(HostKind::kDnsRecursive);
  ASSERT_EQ(dns_a.size(), dns_b.size());
  for (std::size_t i = 0; i + 1 < dns_a.size() && i < 20; ++i) {
    const auto a = tools_a.King(dns_a[i], dns_a[i + 1]);
    const auto b = tools_b.King(dns_b[i], dns_b[i + 1]);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_DOUBLE_EQ(*a, *b);
    }
  }
}

}  // namespace
}  // namespace np::net
