// The synthetic Internet: entity model, generation, routing and
// latency computation.
//
// Structure (paper Fig 1): each AS deploys PoPs in cities. A PoP has a
// core router (level 0) and a tree of aggregation routers below it.
// End-networks attach to aggregation routers through an access link;
// hosts inside an end-network see each other at LAN latency. Home
// users attach directly to leaf aggregation routers ("concentrators")
// with large last-mile latencies.
//
// Routing follows the paper's validated model (§2, §3.1): a message
// between two hosts climbs to their lowest common router — the PoP
// core if they share nothing lower, across the inter-PoP core if they
// are in different PoPs — then descends. Messages within an
// end-network never leave it.
#pragma once

#include <string>
#include <vector>

#include "net/topology_config.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/types.h"

namespace np::net {

enum class HostKind {
  kPlain,         // generic end-network host
  kDnsRecursive,  // §3.1 measurement subject
  kAzureusPeer,   // §3.2 measurement subject
  kVantage,       // measurement / PlanetLab analog (Table 1)
};

struct City {
  int id = -1;
  std::string name;
  double x = 0.0;
  double y = 0.0;
};

struct As {
  int id = -1;
  std::string name;
  /// Base address of this AS's /Topology::kAsBlockBits block.
  Ipv4 block_base = 0;
};

struct Pop {
  int id = -1;
  int as_id = -1;
  int city_id = -1;
  RouterId core_router = kInvalidRouter;
  /// Base address of this PoP's /Topology::kPopRegionBits region.
  Ipv4 region_base = 0;
};

struct Router {
  RouterId id = kInvalidRouter;
  int pop_id = -1;
  /// 0 = PoP core; increasing toward the edge.
  int level = 0;
  RouterId parent = kInvalidRouter;
  /// RTT of the link to the parent router, ms (0 for the core).
  LatencyMs parent_link_ms = 0.0;
  std::string name;
  /// What rockettrace infers from the router's DNS name. Usually the
  /// truth; misconfigured names point at a wrong city.
  int annotated_as = -1;
  int annotated_city = -1;
  /// Whether the router ever answers traceroute probes.
  bool responds = true;
  /// True for leaf aggregation routers that terminate home last-miles.
  bool is_concentrator = false;
  /// Concentrators only: the neighborhood's typical last-mile RTT, ms.
  /// Subscribers of one DSLAM/CMTS share line technology and loop
  /// lengths, so their latencies cluster around this base.
  LatencyMs home_base_ms = 0.0;
};

struct EndNetwork {
  int id = -1;
  int pop_id = -1;
  /// The ISP aggregation router the network's uplink terminates at.
  RouterId attach_router = kInvalidRouter;
  /// The network's own border router; hosts sit behind it, and
  /// traceroutes into the network traverse it (the paper's "router
  /// that is further downstream to the DNS servers than the PoP").
  RouterId gateway_router = kInvalidRouter;
  /// Gateway <-> attachment router RTT, ms (the campus uplink).
  LatencyMs access_ms = 0.0;
  /// RTT between two hosts inside this network, ms.
  LatencyMs lan_ms = 0.0;
  bool multicast_enabled = false;
  /// Base of the /24 (or wider) block assigned to this network.
  Ipv4 prefix_base = 0;
};

struct Host {
  NodeId id = kInvalidNode;
  HostKind kind = HostKind::kPlain;
  /// End-network the host lives in, or -1 for home users.
  int endnet_id = -1;
  /// For home users: the concentrator they attach to. For end-network
  /// hosts: the network's gateway router.
  RouterId attach_router = kInvalidRouter;
  /// Host <-> attach_router RTT, ms (in-LAN for end-network hosts,
  /// last-mile for home users).
  LatencyMs access_ms = 0.0;
  int pop_id = -1;
  Ipv4 ip = 0;
  /// DNS domain id; servers sharing a domain cannot be King-measured
  /// (§3.1). -1 for non-DNS hosts.
  int domain_id = -1;
  /// Mean of this server's King processing lag (exponential), ms.
  double dns_lag_mean_ms = 0.0;
  bool responds_tcp = true;
  bool responds_traceroute = true;
};

/// One hop of a routed path, with the true cumulative RTT from the
/// source host to that router and back.
struct PathHop {
  RouterId router = kInvalidRouter;
  LatencyMs rtt_from_source_ms = 0.0;
};

class Topology {
 public:
  // --- Geography -----------------------------------------------------------
  /// Cities are placed uniformly on a square of this side (abstract km).
  static constexpr double kMapSide = 5000.0;
  /// RTT ms per map unit of city distance (fiber + routing inflation).
  static constexpr double kMsPerUnit = 0.02;
  /// Fixed RTT overhead on any inter-PoP path, ms.
  static constexpr double kCoreBaseMs = 2.0;
  /// Multiplicative spread applied to inter-PoP latencies: U(1-x, 1+x).
  static constexpr double kCoreJitter = 0.15;
  /// RTT between two PoPs in the same city, ms (metro interconnect).
  static constexpr double kSameCityPopMs = 1.2;

  // --- Intra-PoP aggregation trees ------------------------------------------
  static constexpr int kAggFanoutMin = 2;
  static constexpr int kAggFanoutMax = 4;
  /// Per tree-link RTT, ms.
  static constexpr double kLinkMsMin = 0.1;
  static constexpr double kLinkMsMax = 1.2;
  /// Probability a router responds to traceroute at all.
  static constexpr double kRouterRespondProb = 0.92;
  /// Probability a router's name carries a wrong city annotation
  /// (rockettrace parses names; misconfigured names mislead it).
  static constexpr double kRouterMisconfigProb = 0.04;

  // --- End-networks ----------------------------------------------------------
  /// End-network gateway <-> attachment router RTT, ms (campus uplink).
  static constexpr double kEndnetAccessMsMin = 0.3;
  static constexpr double kEndnetAccessMsMax = 6.0;
  /// Intra-LAN RTT between two hosts of the same end-network, ms.
  static constexpr double kLanMsMin = 0.05;
  static constexpr double kLanMsMax = 0.4;
  /// Fraction of end-networks with working site-wide IP multicast.
  static constexpr double kMulticastEnabledProb = 0.4;

  // --- DNS server population (§3.1) ------------------------------------------
  /// Fraction of DNS servers that get a same-domain partner.
  static constexpr double kDnsSameDomainPairFrac = 0.05;
  /// Of those partners, the fraction placed in a *different* city
  /// (the paper observed some same-domain pairs geographically split).
  static constexpr double kDnsDomainSplitCityProb = 0.12;
  /// Per-server mean of the King processing lag (exponential), ms.
  static constexpr double kDnsLagMeanMsMin = 0.2;
  static constexpr double kDnsLagMeanMsMax = 2.8;

  // --- Azureus peer population (§3.2) ----------------------------------------
  /// Home last-mile RTT, ms (DSL/cable spread; drives Fig 7's 5-100 ms
  /// hub-to-peer latencies).
  static constexpr double kHomeAccessMsMin = 5.0;
  static constexpr double kHomeAccessMsMax = 45.0;
  /// Pareto shape for homes-per-concentrator (heavy tail produces the
  /// paper's 200+ member clusters).
  static constexpr double kConcentratorParetoAlpha = 1.1;

  // --- Addressing -------------------------------------------------------------
  /// Each AS owns a /kAsBlockBits block.
  static constexpr int kAsBlockBits = 12;
  /// Each PoP gets a /kPopRegionBits region inside its AS block.
  static constexpr int kPopRegionBits = 17;
  /// Each end-network gets one /24 (plus more on overflow).
  static constexpr int kEndnetPrefixBits = 24;
  /// Probability an end-network uses provider-independent space from a
  /// random other PoP's region (prefix noise for Fig 11).
  static constexpr double kEndnetForeignPrefixProb = 0.12;
  /// Probability a home subscriber's address comes from a completely
  /// different AS's space: unbundled local loops / reseller ISPs put
  /// customers of one physical DSLAM into several providers' blocks.
  static constexpr double kHomeResellerProb = 0.18;

  // --- Vantage points (Table 1 analog) ---------------------------------------
  static constexpr int kNumVantagePoints = 7;

  /// Generates a world; deterministic per (config, rng state).
  static Topology Generate(const TopologyConfig& config, util::Rng& rng);

  // Entity access ------------------------------------------------------------
  const std::vector<City>& cities() const { return cities_; }
  const std::vector<As>& ases() const { return ases_; }
  const std::vector<Pop>& pops() const { return pops_; }
  const std::vector<Router>& routers() const { return routers_; }
  const std::vector<EndNetwork>& endnets() const { return endnets_; }
  const std::vector<Host>& hosts() const { return hosts_; }

  const Host& host(NodeId id) const { return hosts_.at(ToIndex(id)); }
  const Router& router(RouterId id) const { return routers_.at(ToIndex(id)); }

  /// Hosts of the given kind, in id order.
  std::vector<NodeId> HostsOfKind(HostKind kind) const;

  /// The vantage hosts (kVantage), in id order — the Table 1 analog.
  const std::vector<NodeId>& vantage_hosts() const { return vantage_hosts_; }

  // Routing --------------------------------------------------------------------
  /// True end-to-end RTT between two hosts, ms (noise-free; the
  /// measurement tools add noise on top).
  LatencyMs LatencyBetween(NodeId a, NodeId b) const;

  /// RTT from a host to a router, ms. The router need not be on the
  /// host's own branch (the path then climbs to the common point).
  LatencyMs LatencyToRouter(NodeId host, RouterId router) const;

  /// The chain of routers from the host's attachment up to its PoP
  /// core, attachment first.
  std::vector<RouterId> UpChain(NodeId host) const;

  /// Deepest router shared by both hosts' up-chains, or kInvalidRouter
  /// if they share none (different PoPs).
  RouterId LowestCommonRouter(NodeId a, NodeId b) const;

  /// The full router path a -> b: a's up-chain to the meeting point,
  /// then down b's chain. Each hop carries the true cumulative RTT
  /// from `a`. Hosts in the same end-network have an empty path.
  std::vector<PathHop> RouterPath(NodeId a, NodeId b) const;

  /// Number of routers a message a -> b traverses (size of RouterPath).
  int RouterHopCount(NodeId a, NodeId b) const;

  /// True inter-PoP RTT (core router to core router), ms.
  LatencyMs InterPopLatency(int pop_a, int pop_b) const;

 private:
  Topology() = default;

  static std::size_t ToIndex(std::int32_t id) {
    NP_ENSURE(id >= 0, "negative entity id");
    return static_cast<std::size_t>(id);
  }

  /// RTT from host to its own PoP core, ms.
  LatencyMs LegToCore(NodeId host) const;

  /// RTT from host to a router on its own up-chain, ms; throws if the
  /// router is not on the chain.
  LatencyMs LegToChainRouter(NodeId host, RouterId router) const;

  /// Cumulative RTT from a router up to its PoP core.
  LatencyMs RouterToCore(RouterId router) const;

  std::vector<City> cities_;
  std::vector<As> ases_;
  std::vector<Pop> pops_;
  std::vector<Router> routers_;
  std::vector<EndNetwork> endnets_;
  std::vector<Host> hosts_;
  std::vector<NodeId> vantage_hosts_;
  /// Dense pop x pop RTT matrix (row-major, pops x pops).
  std::vector<LatencyMs> interpop_;
};

}  // namespace np::net
