#include "net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "net/ip.h"

namespace np::net {
namespace {

Topology MakeSmall(std::uint64_t seed) {
  util::Rng rng(seed);
  return Topology::Generate(SmallTestConfig(), rng);
}

TEST(TopologyGen, EntityCountsAreConsistent) {
  const Topology t = MakeSmall(1);
  EXPECT_EQ(static_cast<int>(t.cities().size()), 8);
  EXPECT_EQ(static_cast<int>(t.ases().size()), 4);
  EXPECT_GE(t.pops().size(), 4u);
  EXPECT_FALSE(t.routers().empty());
  EXPECT_FALSE(t.endnets().empty());
  EXPECT_FALSE(t.hosts().empty());
  EXPECT_EQ(t.vantage_hosts().size(), 7u);
}

TEST(TopologyGen, DeterministicPerSeed) {
  const Topology a = MakeSmall(5);
  const Topology b = MakeSmall(5);
  ASSERT_EQ(a.hosts().size(), b.hosts().size());
  for (std::size_t i = 0; i < a.hosts().size(); ++i) {
    EXPECT_EQ(a.hosts()[i].ip, b.hosts()[i].ip);
    EXPECT_EQ(a.hosts()[i].attach_router, b.hosts()[i].attach_router);
  }
  EXPECT_DOUBLE_EQ(a.LatencyBetween(0, 5), b.LatencyBetween(0, 5));
}

TEST(TopologyGen, RouterTreesAreWellFormed) {
  const Topology t = MakeSmall(2);
  for (const Router& r : t.routers()) {
    if (r.level == 0) {
      EXPECT_EQ(r.parent, kInvalidRouter);
      EXPECT_DOUBLE_EQ(r.parent_link_ms, 0.0);
    } else {
      ASSERT_NE(r.parent, kInvalidRouter);
      const Router& parent = t.router(r.parent);
      EXPECT_EQ(parent.level, r.level - 1);
      EXPECT_EQ(parent.pop_id, r.pop_id);
      EXPECT_GT(r.parent_link_ms, 0.0);
    }
  }
  // Every PoP's core router exists and is level 0.
  for (const Pop& pop : t.pops()) {
    EXPECT_EQ(t.router(pop.core_router).level, 0);
    EXPECT_EQ(t.router(pop.core_router).pop_id, pop.id);
  }
}

TEST(TopologyGen, HostsHaveValidAttachments) {
  const Topology t = MakeSmall(3);
  for (const Host& h : t.hosts()) {
    ASSERT_NE(h.attach_router, kInvalidRouter);
    const Router& r = t.router(h.attach_router);
    EXPECT_EQ(r.pop_id, h.pop_id);
    if (h.endnet_id >= 0) {
      const EndNetwork& net =
          t.endnets()[static_cast<std::size_t>(h.endnet_id)];
      EXPECT_EQ(net.gateway_router, h.attach_router);
      EXPECT_EQ(net.pop_id, h.pop_id);
      // The gateway's parent is the ISP attachment router and carries
      // the campus uplink latency.
      const Router& gw = t.router(net.gateway_router);
      EXPECT_EQ(gw.parent, net.attach_router);
      EXPECT_DOUBLE_EQ(gw.parent_link_ms, net.access_ms);
    } else {
      EXPECT_TRUE(r.is_concentrator);
    }
    EXPECT_GT(h.access_ms, 0.0);
  }
}

TEST(TopologyGen, IpAddressesAreUnique) {
  const Topology t = MakeSmall(4);
  std::set<Ipv4> ips;
  for (const Host& h : t.hosts()) {
    EXPECT_TRUE(ips.insert(h.ip).second) << FormatIpv4(h.ip);
  }
}

TEST(TopologyGen, SameEndnetHostsSharePrefix24) {
  const Topology t = MakeSmall(5);
  for (const Host& a : t.hosts()) {
    if (a.endnet_id < 0) {
      continue;
    }
    for (const Host& b : t.hosts()) {
      if (b.id <= a.id || b.endnet_id != a.endnet_id) {
        continue;
      }
      // Same end-network implies same /24 unless the network overflowed
      // into a continuation block; both blocks still sit in the same
      // /20 region.
      EXPECT_TRUE(SamePrefix(a.ip, b.ip, 20));
    }
  }
}

TEST(TopologyGen, DnsDomainsMostlyPaired) {
  util::Rng rng(6);
  TopologyConfig config = SmallTestConfig();
  config.dns_recursive_hosts = 200;
  const Topology t = Topology::Generate(config, rng);
  const auto dns = t.HostsOfKind(HostKind::kDnsRecursive);
  EXPECT_EQ(dns.size(), 200u);
  std::map<int, int> domain_sizes;
  for (NodeId id : dns) {
    domain_sizes[t.host(id).domain_id]++;
  }
  int pairs = 0;
  for (const auto& [domain, size] : domain_sizes) {
    EXPECT_LE(size, 2);
    if (size == 2) {
      ++pairs;
    }
  }
  // 5% pairing fraction of 200 hosts -> 5 pairs.
  EXPECT_EQ(pairs, 5);
}

// ---------------------------------------------------------------------------
// Routing invariants

TEST(TopologyRouting, LatencyIsSymmetricAndPositive) {
  const Topology t = MakeSmall(7);
  const auto n = static_cast<NodeId>(t.hosts().size());
  for (NodeId a = 0; a < n; a += 7) {
    for (NodeId b = 0; b < n; b += 11) {
      const LatencyMs ab = t.LatencyBetween(a, b);
      EXPECT_DOUBLE_EQ(ab, t.LatencyBetween(b, a));
      if (a == b) {
        EXPECT_DOUBLE_EQ(ab, 0.0);
      } else {
        EXPECT_GT(ab, 0.0);
      }
    }
  }
}

TEST(TopologyRouting, SameEndnetUsesLanLatency) {
  const Topology t = MakeSmall(8);
  bool found_pair = false;
  for (const Host& a : t.hosts()) {
    if (a.endnet_id < 0) {
      continue;
    }
    for (const Host& b : t.hosts()) {
      if (b.id <= a.id || b.endnet_id != a.endnet_id) {
        continue;
      }
      const EndNetwork& net =
          t.endnets()[static_cast<std::size_t>(a.endnet_id)];
      EXPECT_DOUBLE_EQ(t.LatencyBetween(a.id, b.id), net.lan_ms);
      EXPECT_TRUE(t.RouterPath(a.id, b.id).empty());
      found_pair = true;
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(TopologyRouting, LanIsOrderOfMagnitudeBelowInterNetwork) {
  // The paper's core premise (§2, validated in §3.1 Fig 5).
  const Topology t = MakeSmall(9);
  double max_lan = 0.0;
  double min_inter = kInfiniteLatency;
  const auto n = static_cast<NodeId>(t.hosts().size());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      const Host& ha = t.host(a);
      const Host& hb = t.host(b);
      const LatencyMs lat = t.LatencyBetween(a, b);
      if (ha.endnet_id >= 0 && ha.endnet_id == hb.endnet_id) {
        max_lan = std::max(max_lan, lat);
      } else {
        min_inter = std::min(min_inter, lat);
      }
    }
  }
  EXPECT_LT(max_lan, 0.5);
  EXPECT_GT(min_inter, max_lan);
}

TEST(TopologyRouting, UpChainEndsAtCore) {
  const Topology t = MakeSmall(10);
  for (const Host& h : t.hosts()) {
    const auto chain = t.UpChain(h.id);
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.front(), h.attach_router);
    EXPECT_EQ(chain.back(),
              t.pops()[static_cast<std::size_t>(h.pop_id)].core_router);
    // Levels strictly decrease toward the core.
    for (std::size_t i = 1; i < chain.size(); ++i) {
      EXPECT_EQ(t.router(chain[i]).level, t.router(chain[i - 1]).level - 1);
    }
  }
}

TEST(TopologyRouting, LowestCommonRouterProperties) {
  const Topology t = MakeSmall(11);
  const auto n = static_cast<NodeId>(t.hosts().size());
  for (NodeId a = 0; a < n; a += 5) {
    for (NodeId b = a + 1; b < n; b += 13) {
      const RouterId lca = t.LowestCommonRouter(a, b);
      if (t.host(a).pop_id != t.host(b).pop_id) {
        EXPECT_EQ(lca, kInvalidRouter);
      } else {
        ASSERT_NE(lca, kInvalidRouter);
        const auto chain_a = t.UpChain(a);
        const auto chain_b = t.UpChain(b);
        EXPECT_NE(std::find(chain_a.begin(), chain_a.end(), lca),
                  chain_a.end());
        EXPECT_NE(std::find(chain_b.begin(), chain_b.end(), lca),
                  chain_b.end());
      }
    }
  }
}

TEST(TopologyRouting, SamePopLatencyViaCommonRouterLegs) {
  // The §2 routing assumption: the message climbs to the lowest common
  // router and descends; validated here against the leg arithmetic.
  const Topology t = MakeSmall(12);
  const auto n = static_cast<NodeId>(t.hosts().size());
  int checked = 0;
  for (NodeId a = 0; a < n && checked < 200; ++a) {
    for (NodeId b = a + 1; b < n && checked < 200; ++b) {
      const Host& ha = t.host(a);
      const Host& hb = t.host(b);
      if (ha.pop_id != hb.pop_id ||
          (ha.endnet_id >= 0 && ha.endnet_id == hb.endnet_id)) {
        continue;
      }
      const RouterId lca = t.LowestCommonRouter(a, b);
      const LatencyMs expected =
          t.LatencyToRouter(a, lca) + t.LatencyToRouter(b, lca);
      EXPECT_NEAR(t.LatencyBetween(a, b), expected, 1e-9);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(TopologyRouting, CrossPopLatencyDecomposes) {
  const Topology t = MakeSmall(13);
  const auto n = static_cast<NodeId>(t.hosts().size());
  int checked = 0;
  for (NodeId a = 0; a < n && checked < 100; a += 3) {
    for (NodeId b = a + 1; b < n && checked < 100; b += 7) {
      const Host& ha = t.host(a);
      const Host& hb = t.host(b);
      if (ha.pop_id == hb.pop_id) {
        continue;
      }
      const RouterId core_a =
          t.pops()[static_cast<std::size_t>(ha.pop_id)].core_router;
      const RouterId core_b =
          t.pops()[static_cast<std::size_t>(hb.pop_id)].core_router;
      const LatencyMs expected = t.LatencyToRouter(a, core_a) +
                                 t.InterPopLatency(ha.pop_id, hb.pop_id) +
                                 t.LatencyToRouter(b, core_b);
      EXPECT_NEAR(t.LatencyBetween(a, b), expected, 1e-9);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(TopologyRouting, RouterPathHopsAreMonotoneInRtt) {
  const Topology t = MakeSmall(14);
  const auto n = static_cast<NodeId>(t.hosts().size());
  int checked = 0;
  for (NodeId a = 0; a < n && checked < 100; a += 2) {
    for (NodeId b = a + 1; b < n && checked < 100; b += 9) {
      const auto path = t.RouterPath(a, b);
      for (std::size_t i = 1; i < path.size(); ++i) {
        EXPECT_GE(path[i].rtt_from_source_ms,
                  path[i - 1].rtt_from_source_ms - 1e-9);
      }
      if (!path.empty()) {
        // The final hop's RTT is at most the end-to-end RTT.
        EXPECT_LE(path.back().rtt_from_source_ms,
                  t.LatencyBetween(a, b) + 1e-9);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(TopologyRouting, PathEndsAtDestinationAttachRouter) {
  const Topology t = MakeSmall(15);
  const auto n = static_cast<NodeId>(t.hosts().size());
  int checked = 0;
  for (NodeId a = 0; a < n && checked < 100; a += 4) {
    for (NodeId b = 0; b < n && checked < 100; b += 6) {
      if (a == b) {
        continue;
      }
      const Host& ha = t.host(a);
      const Host& hb = t.host(b);
      if (ha.endnet_id >= 0 && ha.endnet_id == hb.endnet_id) {
        continue;
      }
      const auto path = t.RouterPath(a, b);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.back().router, hb.attach_router);
      EXPECT_EQ(path.front().router, ha.attach_router);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(TopologyRouting, TriangleInequalityHolds) {
  // Tree + hub routing is a metric: direct path never beats a detour.
  const Topology t = MakeSmall(16);
  const auto n = static_cast<NodeId>(t.hosts().size());
  for (int trial = 0; trial < 500; ++trial) {
    util::Rng pick(static_cast<std::uint64_t>(trial) + 1000);
    const NodeId a = static_cast<NodeId>(pick.Index(
        static_cast<std::size_t>(n)));
    const NodeId b = static_cast<NodeId>(pick.Index(
        static_cast<std::size_t>(n)));
    const NodeId c = static_cast<NodeId>(pick.Index(
        static_cast<std::size_t>(n)));
    if (a == b || b == c || a == c) {
      continue;
    }
    // Inter-PoP latencies carry independent multiplicative jitter
    // (kCoreJitter = +-15%), which — like the real Internet — permits
    // mild triangle violations: direct can be jittered up while both
    // detour legs are jittered down. The worst case is bounded by
    // roughly 2x the jitter of the direct path.
    const LatencyMs direct = t.LatencyBetween(a, b);
    EXPECT_LE(direct,
              t.LatencyBetween(a, c) + t.LatencyBetween(c, b) +
                  0.35 * direct + 1.0);
  }
}

TEST(TopologyGen, VantageHostsAreSpreadAcrossCities) {
  const Topology t = MakeSmall(17);
  std::set<int> cities;
  for (NodeId v : t.vantage_hosts()) {
    const Host& h = t.host(v);
    EXPECT_EQ(h.kind, HostKind::kVantage);
    cities.insert(
        t.pops()[static_cast<std::size_t>(h.pop_id)].city_id);
  }
  // 7 vantage points over 8 cities: at least 5 distinct.
  EXPECT_GE(cities.size(), 5u);
}

TEST(TopologyGen, AzureusMixOfHomeAndEndnetPeers) {
  const Topology t = MakeSmall(18);
  const auto peers = t.HostsOfKind(HostKind::kAzureusPeer);
  EXPECT_EQ(peers.size(), 300u);
  int home = 0;
  int in_net = 0;
  for (NodeId id : peers) {
    (t.host(id).endnet_id < 0 ? home : in_net)++;
  }
  EXPECT_GT(home, 100);
  EXPECT_GT(in_net, 30);
}

TEST(TopologyGen, HomeAccessLatenciesInConfiguredRange) {
  const Topology t = MakeSmall(19);
  for (const Host& h : t.hosts()) {
    if (h.kind == HostKind::kAzureusPeer && h.endnet_id < 0) {
      EXPECT_GE(h.access_ms, Topology::kHomeAccessMsMin);
      EXPECT_LE(h.access_ms, Topology::kHomeAccessMsMax + 1e-9);
    }
  }
}

}  // namespace
}  // namespace np::net
