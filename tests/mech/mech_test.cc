#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "mech/hybrid.h"
#include "mech/key_value_map.h"
#include "mech/local_search.h"
#include "mech/prefix_dir.h"
#include "mech/topology_space.h"
#include "mech/ucl.h"
#include "net/ip.h"

namespace np::mech {
namespace {

struct MechFixture {
  explicit MechFixture(std::uint64_t seed, int peers = 800)
      : rng(seed), topology(MakeTopology(peers, rng)) {}

  static net::Topology MakeTopology(int peers, util::Rng& rng) {
    net::TopologyConfig config = net::SmallTestConfig();
    config.dns_recursive_hosts = 0;
    config.azureus_hosts = peers;
    // Everyone responsive: mechanism tests are about the directories,
    // not the measurement screens.
    config.azureus_tcp_respond_prob = 1.0;
    config.azureus_trace_respond_prob = 1.0;
    return net::Topology::Generate(config, rng);
  }

  util::Rng rng;
  net::Topology topology;
};

// ---------------------------------------------------------------------------
// Value encoding

TEST(ValueEncoding, RoundTrips) {
  const auto v = EncodePeerLatency(12345, 3.21);
  EXPECT_EQ(DecodePeer(v), 12345);
  EXPECT_NEAR(DecodeLatency(v), 3.21, 0.011);
}

TEST(ValueEncoding, SaturatesHugeLatency) {
  const auto v = EncodePeerLatency(1, 1e12);
  EXPECT_EQ(DecodePeer(v), 1);
  EXPECT_GT(DecodeLatency(v), 1e6);
}

TEST(ValueEncoding, RejectsInvalid) {
  EXPECT_THROW(EncodePeerLatency(-1, 1.0), util::Error);
  EXPECT_THROW(EncodePeerLatency(1, -1.0), util::Error);
}

// ---------------------------------------------------------------------------
// Key-value maps

TEST(Maps, PerfectMapMultimapSemantics) {
  PerfectMap map;
  util::Rng rng(1);
  map.Put(7, 1, rng);
  map.Put(7, 2, rng);
  map.Put(8, 3, rng);
  EXPECT_EQ(map.Get(7, rng), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(map.Get(8, rng), (std::vector<std::uint64_t>{3}));
  EXPECT_TRUE(map.Get(9, rng).empty());
  EXPECT_EQ(map.total_hops(), 0u);
}

TEST(Maps, ChordMapMatchesPerfectMapContents) {
  std::vector<NodeId> ring_members;
  for (NodeId i = 0; i < 128; ++i) {
    ring_members.push_back(i);
  }
  ChordMap chord(ring_members, 0xAB);
  PerfectMap perfect;
  util::Rng rng(2);
  for (std::uint64_t k = 0; k < 40; ++k) {
    for (std::uint64_t v = 0; v < 3; ++v) {
      chord.Put(k, k * 10 + v, rng);
      perfect.Put(k, k * 10 + v, rng);
    }
  }
  for (std::uint64_t k = 0; k < 40; ++k) {
    EXPECT_EQ(chord.Get(k, rng), perfect.Get(k, rng)) << "key " << k;
  }
  EXPECT_GT(chord.total_hops(), 0u);
}

// ---------------------------------------------------------------------------
// UCL

TEST(Ucl, BuildUclWalksUpChain) {
  MechFixture f(3);
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);
  int nonempty = 0;
  for (std::size_t i = 0; i < 50 && i < peers.size(); ++i) {
    const auto ucl = BuildUcl(f.topology, peers[i]);
    EXPECT_LE(ucl.size(), static_cast<std::size_t>(kUclMaxRouters));
    const auto chain = f.topology.UpChain(peers[i]);
    LatencyMs prev = 0.0;
    for (const UclEntry& entry : ucl) {
      // Every UCL router is on the chain and responds.
      EXPECT_NE(std::find(chain.begin(), chain.end(), entry.router),
                chain.end());
      EXPECT_TRUE(f.topology.router(entry.router).responds);
      // Latencies grow along the chain.
      EXPECT_GE(entry.latency_ms, prev);
      prev = entry.latency_ms;
      EXPECT_NEAR(entry.latency_ms,
                  f.topology.LatencyToRouter(peers[i], entry.router), 1e-9);
    }
    nonempty += ucl.empty() ? 0 : 1;
  }
  EXPECT_GT(nonempty, 40);
}

TEST(Ucl, DirectoryFindsSharedRouterPeers) {
  MechFixture f(4);
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);
  PerfectMap map;
  UclDirectory dir(map);
  util::Rng rng(5);
  // Register all but the last peer; the last one joins.
  for (std::size_t i = 0; i + 1 < peers.size(); ++i) {
    dir.RegisterPeer(f.topology, peers[i], rng);
  }
  const NodeId joiner = peers.back();
  const auto candidates =
      dir.Candidates(f.topology, joiner, rng, kInfiniteLatency);

  // Ground truth: peers sharing at least one responding up-chain
  // router with the joiner.
  const auto joiner_ucl = BuildUcl(f.topology, joiner);
  std::set<RouterId> joiner_routers;
  for (const auto& e : joiner_ucl) {
    joiner_routers.insert(e.router);
  }
  std::set<NodeId> expected;
  for (std::size_t i = 0; i + 1 < peers.size(); ++i) {
    for (const auto& e : BuildUcl(f.topology, peers[i])) {
      if (joiner_routers.count(e.router) > 0) {
        expected.insert(peers[i]);
      }
    }
  }
  std::set<NodeId> got;
  for (const auto& c : candidates) {
    got.insert(c.peer);
  }
  EXPECT_EQ(got, expected);
}

TEST(Ucl, EstimateUpperBoundsTrueLatency) {
  // In tree routing, legA + legB through a shared router bounds the
  // true RTT from above (the LCA may be lower than the shared router).
  MechFixture f(6);
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);
  PerfectMap map;
  UclDirectory dir(map);
  util::Rng rng(7);
  for (std::size_t i = 0; i + 1 < peers.size(); ++i) {
    dir.RegisterPeer(f.topology, peers[i], rng);
  }
  const NodeId joiner = peers.back();
  for (const auto& c :
       dir.Candidates(f.topology, joiner, rng, kInfiniteLatency)) {
    // The directory stores latencies quantized to 10 us; allow one
    // quantum per leg.
    EXPECT_GE(c.estimated_ms + 0.011,
              f.topology.LatencyBetween(joiner, c.peer));
  }
}

TEST(Ucl, EstimateFilterDropsFarCandidates) {
  MechFixture f(8);
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);
  PerfectMap map;
  UclDirectory dir(map);
  util::Rng rng(9);
  for (std::size_t i = 0; i + 1 < peers.size(); ++i) {
    dir.RegisterPeer(f.topology, peers[i], rng);
  }
  const NodeId joiner = peers.back();
  const auto all = dir.Candidates(f.topology, joiner, rng, kInfiniteLatency);
  const auto close = dir.Candidates(f.topology, joiner, rng, 10.0);
  EXPECT_LE(close.size(), all.size());
  for (const auto& c : close) {
    EXPECT_LE(c.estimated_ms, 10.0);
  }
  // Sorted ascending by estimate.
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i].estimated_ms, all[i - 1].estimated_ms);
  }
}

// ---------------------------------------------------------------------------
// Prefix directory

TEST(PrefixDir, MatchesGroundTruthPrefixGroups) {
  MechFixture f(10);
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);
  PerfectMap map;
  PrefixDirectory dir(map, 16);
  util::Rng rng(11);
  for (std::size_t i = 0; i + 1 < peers.size(); ++i) {
    dir.RegisterPeer(f.topology, peers[i], rng);
  }
  const NodeId joiner = peers.back();
  const auto got = dir.Candidates(f.topology, joiner, rng);
  std::vector<NodeId> expected;
  for (std::size_t i = 0; i + 1 < peers.size(); ++i) {
    if (net::SamePrefix(f.topology.host(peers[i]).ip,
                        f.topology.host(joiner).ip, 16)) {
      expected.push_back(peers[i]);
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);
}

TEST(PrefixDir, LongerPrefixesNominateFewerPeers) {
  MechFixture f(12);
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);
  util::Rng rng(13);
  std::size_t prev = peers.size();
  for (int bits : {8, 16, 24}) {
    PerfectMap map;
    PrefixDirectory dir(map, bits);
    for (std::size_t i = 0; i + 1 < peers.size(); ++i) {
      dir.RegisterPeer(f.topology, peers[i], rng);
    }
    const auto candidates =
        dir.Candidates(f.topology, peers.back(), rng);
    EXPECT_LE(candidates.size(), prev);
    prev = candidates.size();
  }
}

TEST(PrefixDir, InvalidBitsThrow) {
  PerfectMap map;
  EXPECT_THROW(PrefixDirectory(map, 0), util::Error);
  EXPECT_THROW(PrefixDirectory(map, 33), util::Error);
}

// ---------------------------------------------------------------------------
// Multicast / registry

TEST(Multicast, OnlyFindsSameEndnetPeersWhereEnabled) {
  MechFixture f(14);
  MulticastBootstrap mcast(f.topology);
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);
  for (NodeId p : peers) {
    const bool registered = mcast.RegisterPeer(p);
    EXPECT_EQ(registered, f.topology.host(p).endnet_id >= 0);
  }
  int found_any = 0;
  for (NodeId p : peers) {
    const auto found = mcast.Search(p);
    const net::Host& h = f.topology.host(p);
    if (h.endnet_id < 0) {
      EXPECT_TRUE(found.empty());
      continue;
    }
    const auto& endnet =
        f.topology.endnets()[static_cast<std::size_t>(h.endnet_id)];
    if (!endnet.multicast_enabled) {
      EXPECT_TRUE(found.empty());
      continue;
    }
    for (NodeId q : found) {
      EXPECT_EQ(f.topology.host(q).endnet_id, h.endnet_id);
      EXPECT_NE(q, p);
    }
    found_any += found.empty() ? 0 : 1;
  }
  EXPECT_GT(found_any, 0);
}

TEST(Registry, QueriesRequireDeployment) {
  MechFixture f(15);
  util::Rng rng(16);
  // Threshold high enough that no network gets the large-site boost:
  // deployment stays a plain 30% coin toss per network.
  EndNetworkRegistry registry(f.topology, 0.3, 1000, rng);
  EXPECT_GT(registry.deployed_count(), 0);
  EXPECT_LT(registry.deployed_count(),
            static_cast<int>(f.topology.endnets().size()));
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);
  for (NodeId p : peers) {
    registry.RegisterPeer(p);
  }
  for (NodeId p : peers) {
    const auto found = registry.Query(p);
    const net::Host& h = f.topology.host(p);
    if (h.endnet_id < 0 || !registry.HasRegistry(h.endnet_id)) {
      EXPECT_TRUE(found.empty());
    } else {
      for (NodeId q : found) {
        EXPECT_EQ(f.topology.host(q).endnet_id, h.endnet_id);
      }
    }
  }
}

TEST(Registry, ZeroDeploymentProbabilityDeploysNothing) {
  MechFixture f(17);
  util::Rng rng(18);
  EndNetworkRegistry registry(f.topology, 0.0, 4, rng);
  EXPECT_EQ(registry.deployed_count(), 0);
}

// ---------------------------------------------------------------------------
// Hybrid

TEST(Hybrid, UclMechanismBeatsNoMechanismOnLanTargets) {
  MechFixture f(19);
  const TopologySpace space(f.topology);
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);

  // Members: all but 30 peers. Targets: the held-out 30.
  std::vector<NodeId> members(peers.begin(), peers.end() - 30);
  std::vector<NodeId> targets(peers.end() - 30, peers.end());

  HybridNearest hybrid(f.topology, Mechanism::kUcl, /*fallback=*/nullptr);
  util::Rng rng(20);
  hybrid.Build(space, members, rng);

  const core::MeteredSpace metered(space);
  int hybrid_wins = 0;
  int valid = 0;
  for (NodeId target : targets) {
    const auto result = hybrid.FindNearest(target, metered, rng);
    ASSERT_NE(result.found, kInvalidNode);
    const NodeId truth = core::TrueClosestMember(space, members, target);
    const LatencyMs truth_latency = space.Latency(truth, target);
    ++valid;
    if (result.found_latency_ms <= truth_latency + 1e-9) {
      ++hybrid_wins;
    }
  }
  // UCL tracks shared upstream routers; the exact closest peer of a
  // clustered world is nearly always behind a shared router.
  EXPECT_GT(valid, 0);
  EXPECT_GT(static_cast<double>(hybrid_wins) / valid, 0.5);
}

TEST(Hybrid, FallbackNeverWorseThanMechanismAlone) {
  MechFixture f(21);
  const TopologySpace space(f.topology);
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);
  std::vector<NodeId> members(peers.begin(), peers.end() - 20);
  std::vector<NodeId> targets(peers.end() - 20, peers.end());

  const Mechanism weak = Mechanism::kMulticast;
  HybridNearest alone(f.topology, weak, nullptr);
  HybridNearest with_fallback(f.topology, weak,
                              std::make_unique<core::OracleNearest>());
  util::Rng rng_a(22);
  util::Rng rng_b(22);
  alone.Build(space, members, rng_a);
  with_fallback.Build(space, members, rng_b);

  const core::MeteredSpace metered(space);
  util::Rng q_a(23);
  util::Rng q_b(23);
  double alone_total = 0.0;
  double fallback_total = 0.0;
  for (NodeId target : targets) {
    alone_total += alone.FindNearest(target, metered, q_a).found_latency_ms;
    fallback_total +=
        with_fallback.FindNearest(target, metered, q_b).found_latency_ms;
  }
  EXPECT_LE(fallback_total, alone_total + 1e-6);
}

TEST(Hybrid, NamesDescribeComposition) {
  MechFixture f(26, 200);
  HybridNearest alone(f.topology, Mechanism::kPrefix, nullptr);
  EXPECT_EQ(alone.name(), "hybrid-prefix");
  HybridNearest with_fallback(f.topology, Mechanism::kPrefix,
                              std::make_unique<core::RandomNearest>());
  EXPECT_EQ(with_fallback.name(), "hybrid-prefix+random");
}

// ---------------------------------------------------------------------------
// Incremental churn: map removal + directory unregistration + hybrid
// join/leave

TEST(Maps, RemoveErasesOneCopyAndToleratesAbsence) {
  PerfectMap map;
  util::Rng rng(31);
  map.Put(7, 1, rng);
  map.Put(7, 2, rng);
  map.Put(7, 1, rng);
  map.Remove(7, 1, rng);
  EXPECT_EQ(map.Get(7, rng), (std::vector<std::uint64_t>{2, 1}));
  map.Remove(7, 99, rng);  // absent value: no-op
  map.Remove(8, 1, rng);   // absent key: no-op
  EXPECT_EQ(map.Get(7, rng), (std::vector<std::uint64_t>{2, 1}));
  map.Remove(7, 1, rng);
  map.Remove(7, 2, rng);
  EXPECT_TRUE(map.Get(7, rng).empty());
}

TEST(Maps, ChordRemoveMatchesPerfectAndBillsHops) {
  std::vector<NodeId> ring_members;
  for (NodeId i = 0; i < 128; ++i) {
    ring_members.push_back(i);
  }
  ChordMap chord(ring_members, 0xAB);
  PerfectMap perfect;
  util::Rng rng(32);
  for (std::uint64_t k = 0; k < 20; ++k) {
    for (std::uint64_t v = 0; v < 3; ++v) {
      chord.Put(k, k * 10 + v, rng);
      perfect.Put(k, k * 10 + v, rng);
    }
  }
  const std::uint64_t hops_before = chord.total_hops();
  for (std::uint64_t k = 0; k < 20; k += 2) {
    chord.Remove(k, k * 10 + 1, rng);
    perfect.Remove(k, k * 10 + 1, rng);
  }
  EXPECT_GT(chord.total_hops(), hops_before);
  for (std::uint64_t k = 0; k < 20; ++k) {
    EXPECT_EQ(chord.Get(k, rng), perfect.Get(k, rng)) << "key " << k;
  }
}

TEST(Ucl, UnregisterWithdrawsACandidatesEntries) {
  MechFixture f(33);
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);
  PerfectMap map;
  UclDirectory dir(map);
  util::Rng rng(34);
  for (std::size_t i = 0; i + 1 < peers.size(); ++i) {
    dir.RegisterPeer(f.topology, peers[i], rng);
  }
  const NodeId joiner = peers.back();
  const auto before = dir.Candidates(f.topology, joiner, rng,
                                     kInfiniteLatency);
  // Withdraw every candidate; afterwards none may be proposed again.
  for (const auto& c : before) {
    dir.UnregisterPeer(f.topology, c.peer, rng);
  }
  EXPECT_TRUE(
      dir.Candidates(f.topology, joiner, rng, kInfiniteLatency).empty());
  // Re-registration restores the exact candidate set.
  for (const auto& c : before) {
    dir.RegisterPeer(f.topology, c.peer, rng);
  }
  const auto after = dir.Candidates(f.topology, joiner, rng,
                                    kInfiniteLatency);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].peer, before[i].peer);
    EXPECT_EQ(after[i].estimated_ms, before[i].estimated_ms);
  }
}

TEST(Prefix, UnregisterWithdrawsTheMapping) {
  MechFixture f(35);
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);
  PerfectMap map;
  PrefixDirectory dir(map, 24);
  util::Rng rng(36);
  for (std::size_t i = 0; i + 1 < peers.size(); ++i) {
    dir.RegisterPeer(f.topology, peers[i], rng);
  }
  const NodeId joiner = peers.back();
  const auto before = dir.Candidates(f.topology, joiner, rng);
  for (const NodeId peer : before) {
    dir.UnregisterPeer(f.topology, peer, rng);
    dir.UnregisterPeer(f.topology, peer, rng);  // repeated notice: no-op
  }
  EXPECT_TRUE(dir.Candidates(f.topology, joiner, rng).empty());
  EXPECT_EQ(dir.registered_peers(),
            static_cast<int>(peers.size() - 1 - before.size()));
  // Registration is idempotent too: a re-register after the duplicate
  // notices restores exactly one mapping.
  if (!before.empty()) {
    dir.RegisterPeer(f.topology, before.front(), rng);
    dir.RegisterPeer(f.topology, before.front(), rng);
    const auto restored = dir.Candidates(f.topology, joiner, rng);
    EXPECT_EQ(restored, std::vector<NodeId>{before.front()});
  }
}

TEST(LocalSearch, UnregisterDropsPeersFromBothDirectories) {
  MechFixture f(37);
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);
  util::Rng rng(38);
  MulticastBootstrap multicast(f.topology);
  EndNetworkRegistry registry(f.topology, 1.0, 4, rng);
  for (const NodeId peer : peers) {
    multicast.RegisterPeer(peer);
    registry.RegisterPeer(peer);
    // Double registration is refused, not duplicated.
    EXPECT_FALSE(multicast.RegisterPeer(peer));
    EXPECT_FALSE(registry.RegisterPeer(peer));
  }
  int multicast_checked = 0;
  int registry_checked = 0;
  for (std::size_t i = 0; i < 200 && i < peers.size(); ++i) {
    const NodeId peer = peers[i];
    {
      const auto search = multicast.Search(peer);
      if (multicast.UnregisterPeer(peer)) {
        for (const NodeId other : search) {
          // Survivors still find each other; nobody finds the leaver.
          const auto after = multicast.Search(other);
          EXPECT_EQ(std::find(after.begin(), after.end(), peer),
                    after.end());
        }
        ++multicast_checked;
      }
    }
    {
      const auto listed = registry.Query(peer);
      if (registry.UnregisterPeer(peer)) {
        for (const NodeId other : listed) {
          const auto after = registry.Query(other);
          EXPECT_EQ(std::find(after.begin(), after.end(), peer),
                    after.end());
        }
        ++registry_checked;
      }
    }
  }
  EXPECT_GT(multicast_checked, 0);
  EXPECT_GT(registry_checked, 0);
}

TEST(Hybrid, IncrementalChurnTracksMembershipAndDirectories) {
  MechFixture f(39, 400);
  const TopologySpace space(f.topology);
  const auto peers = f.topology.HostsOfKind(net::HostKind::kAzureusPeer);
  for (const Mechanism mechanism :
       {Mechanism::kUcl, Mechanism::kPrefix, Mechanism::kMulticast,
        Mechanism::kRegistry}) {
    HybridNearest hybrid(f.topology, mechanism,
                         std::make_unique<core::OracleNearest>());
    ASSERT_TRUE(hybrid.SupportsChurn());
    std::vector<NodeId> members(peers.begin(), peers.end() - 50);
    util::Rng rng(40);
    hybrid.Build(space, members, rng);

    // Churn: 25 leaves, 25 joins from the reserve.
    for (int i = 0; i < 25; ++i) {
      hybrid.RemoveMember(members[static_cast<std::size_t>(i) * 2]);
      hybrid.AddMember(peers[peers.size() - 1 - static_cast<std::size_t>(i)],
                       rng);
    }
    EXPECT_EQ(hybrid.members().size(), members.size());

    // Queries keep returning live members only (the oracle fallback
    // scans hybrid.members(), and mechanism candidates must not
    // resurrect the departed).
    std::set<NodeId> live(hybrid.members().begin(), hybrid.members().end());
    const core::MeteredSpace metered(space);
    util::Rng qrng(41);
    for (int q = 0; q < 40; ++q) {
      const NodeId target = peers[peers.size() - 50 + qrng.Index(25)];
      const auto result = hybrid.FindNearest(target, metered, qrng);
      EXPECT_EQ(live.count(result.found), 1u)
          << MechanismName(mechanism) << " returned a non-member";
    }
  }
}

}  // namespace
}  // namespace np::mech
