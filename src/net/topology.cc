#include "net/topology.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <unordered_map>

#include "net/ip.h"

namespace np::net {

namespace {

/// All allocations start here (11.0.0.0) — keeps generated addresses
/// out of the common private ranges for readability.
constexpr Ipv4 kAddressSpaceBase = 0x0B000000;

/// Pareto(alpha) sample with unit scale, capped for sanity.
double ParetoSample(util::Rng& rng, double alpha, double cap) {
  double u = 0.0;
  do {
    u = rng.NextDouble();
  } while (u <= 0.0);
  return std::min(std::pow(u, -1.0 / alpha), cap);
}

/// Generation-time per-PoP /24 block allocator.
class BlockAllocator {
 public:
  explicit BlockAllocator(std::size_t num_pops) : next_(num_pops, 0) {}

  /// Base address of a fresh block inside the PoP's region.
  Ipv4 AllocateBlock(const Pop& pop) {
    auto& next = next_[static_cast<std::size_t>(pop.id)];
    NP_ENSURE(next < kBlocksPerPop,
              "PoP address region exhausted; widen Topology::kPopRegionBits");
    const Ipv4 base =
        pop.region_base +
        (static_cast<Ipv4>(next) << (32 - Topology::kEndnetPrefixBits));
    ++next;
    return base;
  }

 private:
  static constexpr int kBlocksPerPop =
      1 << (Topology::kEndnetPrefixBits - Topology::kPopRegionBits);
  std::vector<int> next_;
};

/// Generation-time host-address allocator: hands out sequential host
/// addresses inside /24 blocks, fetching fresh blocks on overflow.
class HostAddressPool {
 public:
  explicit HostAddressPool(BlockAllocator& blocks) : blocks_(&blocks) {}

  Ipv4 Next(const Pop& pop, Ipv4& current_base, int& used) {
    if (used >= 254) {
      current_base = blocks_->AllocateBlock(pop);
      used = 0;
    }
    ++used;
    return current_base + static_cast<Ipv4>(used);
  }

 private:
  BlockAllocator* blocks_;
};

}  // namespace

static_assert(0 < Topology::kAsBlockBits &&
                  Topology::kAsBlockBits < Topology::kPopRegionBits &&
                  Topology::kPopRegionBits < Topology::kEndnetPrefixBits &&
                  Topology::kEndnetPrefixBits <= 24,
              "address plan must nest: AS block > PoP region > end-network");
static_assert(Topology::kAggFanoutMin >= 1 &&
                  Topology::kAggFanoutMax >= Topology::kAggFanoutMin,
              "invalid aggregation fanout range");
static_assert(Topology::kNumVantagePoints >= 1,
              "need at least one vantage point");
static_assert(Topology::kMsPerUnit > 0.0 && Topology::kMapSide > 0.0,
              "invalid geography");

void ValidateTopologyConfig(const TopologyConfig& c) {
  NP_ENSURE(c.num_cities >= 1, "need at least one city");
  NP_ENSURE(c.num_ases >= 1, "need at least one AS");
  NP_ENSURE(c.min_pops_per_as >= 1 && c.max_pops_per_as >= c.min_pops_per_as,
            "invalid PoPs-per-AS range");
  NP_ENSURE(c.agg_levels >= 1, "need at least one aggregation level");
  NP_ENSURE(c.endnets_per_pop_min >= 1 &&
                c.endnets_per_pop_max >= c.endnets_per_pop_min,
            "invalid end-networks-per-PoP range");
  NP_ENSURE(c.max_pops_per_as <=
                (1 << (Topology::kPopRegionBits - Topology::kAsBlockBits)),
            "PoP regions do not fit in the AS block");
}

TopologyConfig DnsStudyConfig() {
  TopologyConfig config;
  config.dns_recursive_hosts = 22000;
  return config;
}

TopologyConfig AzureusStudyConfig() {
  TopologyConfig config;
  config.azureus_hosts = 156658;
  return config;
}

TopologyConfig SmallTestConfig() {
  TopologyConfig config;
  config.num_cities = 8;
  config.num_ases = 4;
  config.min_pops_per_as = 1;
  config.max_pops_per_as = 3;
  config.agg_levels = 2;
  config.endnets_per_pop_min = 2;
  config.endnets_per_pop_max = 5;
  config.dns_recursive_hosts = 120;
  config.azureus_hosts = 300;
  config.azureus_tcp_respond_prob = 0.5;
  config.azureus_trace_respond_prob = 0.5;
  return config;
}

Topology Topology::Generate(const TopologyConfig& config, util::Rng& rng) {
  ValidateTopologyConfig(config);
  Topology t;

  // --- Cities ---------------------------------------------------------------
  t.cities_.resize(static_cast<std::size_t>(config.num_cities));
  for (int c = 0; c < config.num_cities; ++c) {
    City& city = t.cities_[static_cast<std::size_t>(c)];
    city.id = c;
    city.name = "city" + std::to_string(c);
    city.x = rng.Uniform(0.0, kMapSide);
    city.y = rng.Uniform(0.0, kMapSide);
  }

  // --- ASes and PoPs ----------------------------------------------------------
  t.ases_.resize(static_cast<std::size_t>(config.num_ases));
  for (int a = 0; a < config.num_ases; ++a) {
    As& as = t.ases_[static_cast<std::size_t>(a)];
    as.id = a;
    as.name = "AS" + std::to_string(6400 + a);
    as.block_base = kAddressSpaceBase +
                    (static_cast<Ipv4>(a) << (32 - kAsBlockBits));
    const int num_pops = static_cast<int>(
        rng.UniformInt(config.min_pops_per_as, config.max_pops_per_as));
    const auto pop_cities = rng.Sample(
        static_cast<std::size_t>(config.num_cities),
        static_cast<std::size_t>(
            std::min(num_pops, config.num_cities)));
    for (std::size_t k = 0; k < pop_cities.size(); ++k) {
      Pop pop;
      pop.id = static_cast<int>(t.pops_.size());
      pop.as_id = a;
      pop.city_id = static_cast<int>(pop_cities[k]);
      pop.region_base =
          as.block_base +
          (static_cast<Ipv4>(k) << (32 - kPopRegionBits));
      t.pops_.push_back(pop);
    }
  }

  // --- Aggregation router trees ------------------------------------------------
  for (Pop& pop : t.pops_) {
    Router core;
    core.id = static_cast<RouterId>(t.routers_.size());
    core.pop_id = pop.id;
    core.level = 0;
    core.parent = kInvalidRouter;
    core.parent_link_ms = 0.0;
    core.annotated_as = pop.as_id;
    core.annotated_city = pop.city_id;
    core.responds = rng.Bernoulli(kRouterRespondProb);
    {
      std::ostringstream name;
      name << "cr0.pop" << pop.id << ".as" << pop.as_id << ".net";
      core.name = name.str();
    }
    pop.core_router = core.id;
    t.routers_.push_back(core);

    std::vector<RouterId> frontier{core.id};
    for (int level = 1; level <= config.agg_levels; ++level) {
      std::vector<RouterId> next_frontier;
      for (RouterId parent : frontier) {
        const int fanout = static_cast<int>(
            rng.UniformInt(kAggFanoutMin, kAggFanoutMax));
        for (int f = 0; f < fanout; ++f) {
          Router r;
          r.id = static_cast<RouterId>(t.routers_.size());
          r.pop_id = pop.id;
          r.level = level;
          r.parent = parent;
          r.parent_link_ms = rng.Uniform(kLinkMsMin, kLinkMsMax);
          r.annotated_as = pop.as_id;
          r.annotated_city = pop.city_id;
          if (rng.Bernoulli(kRouterMisconfigProb)) {
            r.annotated_city = static_cast<int>(
                rng.Index(static_cast<std::size_t>(config.num_cities)));
          }
          r.responds = rng.Bernoulli(kRouterRespondProb);
          r.is_concentrator = level == config.agg_levels;
          if (r.is_concentrator) {
            // The neighborhood's typical last-mile: exponential body
            // over the configured range so some concentrators serve
            // slow lines (Fig 7's 5-100 ms spread).
            const double span = kHomeAccessMsMax - kHomeAccessMsMin;
            r.home_base_ms =
                kHomeAccessMsMin +
                std::min(rng.Exponential(span / 3.0), span * 0.8);
          }
          {
            std::ostringstream name;
            name << "ar" << level << '-' << f << ".pop" << pop.id << ".as"
                 << pop.as_id << ".net";
            r.name = name.str();
          }
          next_frontier.push_back(r.id);
          t.routers_.push_back(std::move(r));
        }
      }
      frontier = std::move(next_frontier);
    }
  }

  // --- Inter-PoP latency matrix ---------------------------------------------
  const std::size_t num_pops = t.pops_.size();
  t.interpop_.assign(num_pops * num_pops, 0.0);
  for (std::size_t i = 0; i < num_pops; ++i) {
    for (std::size_t j = i + 1; j < num_pops; ++j) {
      const City& ca = t.cities_[static_cast<std::size_t>(
          t.pops_[i].city_id)];
      const City& cb = t.cities_[static_cast<std::size_t>(
          t.pops_[j].city_id)];
      double base = 0.0;
      if (t.pops_[i].city_id == t.pops_[j].city_id) {
        base = kSameCityPopMs;
      } else {
        const double dist = std::hypot(ca.x - cb.x, ca.y - cb.y);
        base = kCoreBaseMs + dist * kMsPerUnit;
      }
      const double jittered =
          base * (1.0 + rng.Uniform(-kCoreJitter, kCoreJitter));
      t.interpop_[i * num_pops + j] = jittered;
      t.interpop_[j * num_pops + i] = jittered;
    }
  }

  // --- End-networks -------------------------------------------------------------
  BlockAllocator blocks(num_pops);
  std::vector<std::vector<RouterId>> pop_agg_routers(num_pops);
  std::vector<std::vector<RouterId>> pop_concentrators(num_pops);
  for (const Router& r : t.routers_) {
    if (r.level >= 1) {
      pop_agg_routers[static_cast<std::size_t>(r.pop_id)].push_back(r.id);
      if (r.is_concentrator) {
        pop_concentrators[static_cast<std::size_t>(r.pop_id)].push_back(r.id);
      }
    }
  }
  std::vector<std::vector<int>> pop_endnets(num_pops);
  for (const Pop& pop : t.pops_) {
    const int count = static_cast<int>(rng.UniformInt(
        config.endnets_per_pop_min, config.endnets_per_pop_max));
    const auto& aggs = pop_agg_routers[static_cast<std::size_t>(pop.id)];
    NP_ENSURE(!aggs.empty(), "PoP has no aggregation routers");
    for (int e = 0; e < count; ++e) {
      EndNetwork net;
      net.id = static_cast<int>(t.endnets_.size());
      net.pop_id = pop.id;
      net.attach_router = aggs[rng.Index(aggs.size())];
      net.access_ms = rng.Uniform(kEndnetAccessMsMin, kEndnetAccessMsMax);
      net.lan_ms = rng.Uniform(kLanMsMin, kLanMsMax);
      net.multicast_enabled = rng.Bernoulli(kMulticastEnabledProb);
      // The network's own border router: a traceroute-visible hop
      // below the ISP attachment, carrying the campus uplink latency.
      {
        Router gw;
        gw.id = static_cast<RouterId>(t.routers_.size());
        gw.pop_id = pop.id;
        gw.level = t.routers_[ToIndex(net.attach_router)].level + 1;
        gw.parent = net.attach_router;
        gw.parent_link_ms = net.access_ms;
        gw.annotated_as = pop.as_id;
        gw.annotated_city = pop.city_id;
        if (rng.Bernoulli(kRouterMisconfigProb)) {
          gw.annotated_city = static_cast<int>(
              rng.Index(static_cast<std::size_t>(config.num_cities)));
        }
        gw.responds = rng.Bernoulli(kRouterRespondProb);
        gw.is_concentrator = false;
        {
          std::ostringstream name;
          name << "gw.net" << net.id << ".pop" << pop.id << ".as"
               << pop.as_id << ".net";
          gw.name = name.str();
        }
        net.gateway_router = gw.id;
        t.routers_.push_back(std::move(gw));
      }
      // Most networks use their PoP's address region; a few bring
      // provider-independent space allocated under a random other PoP.
      const Pop& address_pop =
          rng.Bernoulli(kEndnetForeignPrefixProb)
              ? t.pops_[rng.Index(num_pops)]
              : pop;
      net.prefix_base = blocks.AllocateBlock(address_pop);
      pop_endnets[static_cast<std::size_t>(pop.id)].push_back(net.id);
      t.endnets_.push_back(std::move(net));
    }
  }
  NP_ENSURE(!t.endnets_.empty(), "no end-networks generated");

  // Per-end-network host addressing state.
  HostAddressPool host_pool(blocks);
  std::vector<Ipv4> endnet_block(t.endnets_.size());
  std::vector<int> endnet_used(t.endnets_.size(), 0);
  for (std::size_t e = 0; e < t.endnets_.size(); ++e) {
    endnet_block[e] = t.endnets_[e].prefix_base;
  }

  const auto add_endnet_host = [&](int endnet_id, HostKind kind) -> Host& {
    const EndNetwork& net =
        t.endnets_[static_cast<std::size_t>(endnet_id)];
    Host h;
    h.id = static_cast<NodeId>(t.hosts_.size());
    h.kind = kind;
    h.endnet_id = endnet_id;
    h.attach_router = net.gateway_router;
    h.access_ms = rng.Uniform(0.02, 0.3);
    h.pop_id = net.pop_id;
    h.ip = host_pool.Next(t.pops_[static_cast<std::size_t>(net.pop_id)],
                          endnet_block[static_cast<std::size_t>(endnet_id)],
                          endnet_used[static_cast<std::size_t>(endnet_id)]);
    t.hosts_.push_back(std::move(h));
    return t.hosts_.back();
  };

  // --- Vantage hosts (Table 1 analog): distinct cities where possible ---------
  {
    std::vector<std::size_t> pop_order(num_pops);
    for (std::size_t i = 0; i < num_pops; ++i) {
      pop_order[i] = i;
    }
    rng.Shuffle(pop_order);
    std::set<int> used_cities;
    std::vector<std::size_t> chosen;
    for (std::size_t p : pop_order) {
      if (chosen.size() == static_cast<std::size_t>(kNumVantagePoints)) {
        break;
      }
      if (used_cities.insert(t.pops_[p].city_id).second) {
        chosen.push_back(p);
      }
    }
    // Fewer cities than vantage points: reuse cities.
    for (std::size_t p : pop_order) {
      if (chosen.size() == static_cast<std::size_t>(kNumVantagePoints)) {
        break;
      }
      if (std::find(chosen.begin(), chosen.end(), p) == chosen.end()) {
        chosen.push_back(p);
      }
    }
    // Fewer PoPs than vantage points (tiny test worlds): reuse PoPs.
    while (chosen.size() < static_cast<std::size_t>(kNumVantagePoints)) {
      chosen.push_back(pop_order[chosen.size() % pop_order.size()]);
    }
    for (std::size_t p : chosen) {
      const auto& nets = pop_endnets[p];
      NP_ENSURE(!nets.empty(), "vantage PoP has no end-network");
      Host& h = add_endnet_host(nets[rng.Index(nets.size())],
                                HostKind::kVantage);
      t.vantage_hosts_.push_back(h.id);
    }
  }

  // --- DNS recursive servers (§3.1 population) ---------------------------------
  if (config.dns_recursive_hosts > 0) {
    int next_domain = 0;
    const int num_pairs = static_cast<int>(
        kDnsSameDomainPairFrac * config.dns_recursive_hosts / 2.0);
    int created = 0;
    const auto random_endnet = [&]() -> int {
      return static_cast<int>(rng.Index(t.endnets_.size()));
    };
    const auto finish_dns_host = [&](Host& h) {
      h.domain_id = next_domain;
      h.dns_lag_mean_ms = rng.Uniform(kDnsLagMeanMsMin, kDnsLagMeanMsMax);
      h.responds_tcp = true;
      h.responds_traceroute = true;
    };
    for (int pair = 0; pair < num_pairs &&
                       created + 2 <= config.dns_recursive_hosts;
         ++pair) {
      const int endnet_a = random_endnet();
      Host& a = add_endnet_host(endnet_a, HostKind::kDnsRecursive);
      finish_dns_host(a);
      // Partner: usually co-located, sometimes in a different network
      // (the paper saw geographically split same-domain pairs).
      const int endnet_b = rng.Bernoulli(kDnsDomainSplitCityProb)
                               ? random_endnet()
                               : endnet_a;
      Host& b = add_endnet_host(endnet_b, HostKind::kDnsRecursive);
      finish_dns_host(b);
      ++next_domain;
      created += 2;
    }
    for (; created < config.dns_recursive_hosts; ++created) {
      Host& h = add_endnet_host(random_endnet(), HostKind::kDnsRecursive);
      finish_dns_host(h);
      ++next_domain;
    }
  }

  // --- Azureus peers (§3.2 population) -----------------------------------------
  if (config.azureus_hosts > 0) {
    // Heavy-tailed concentrator weights: a few access routers serve
    // very many subscribers (DSLAM/BRAS concentration), which is what
    // produces the paper's 200+ peer clusters.
    std::vector<RouterId> concentrators;
    std::vector<double> cumulative;
    double total = 0.0;
    for (std::size_t p = 0; p < num_pops; ++p) {
      for (RouterId r : pop_concentrators[p]) {
        concentrators.push_back(r);
        total += ParetoSample(rng, kConcentratorParetoAlpha, 400.0);
        cumulative.push_back(total);
      }
    }
    NP_ENSURE(!concentrators.empty(), "no concentrators generated");

    // Home-user address pools: dynamic pools span the whole PoP (a
    // subscriber's /24 does not identify their concentrator), and
    // reseller ISPs hand out space from unrelated ASes entirely.
    struct PoolBlock {
      Ipv4 base = 0;
      int used = 0;
    };
    std::vector<std::vector<PoolBlock>> home_pools(num_pops);
    const auto alloc_home_ip = [&](const Pop& pop) -> Ipv4 {
      auto& pools = home_pools[static_cast<std::size_t>(pop.id)];
      std::vector<std::size_t> with_room;
      for (std::size_t i = 0; i < pools.size(); ++i) {
        if (pools[i].used < 254) {
          with_room.push_back(i);
        }
      }
      // Open a fresh /24 when full, or occasionally anyway so pools
      // stay scattered across the region.
      if (with_room.empty() ||
          (pools.size() < 48 && rng.Bernoulli(0.02))) {
        pools.push_back(PoolBlock{blocks.AllocateBlock(pop), 0});
        with_room.push_back(pools.size() - 1);
      }
      PoolBlock& block = pools[with_room[rng.Index(with_room.size())]];
      ++block.used;
      return block.base + static_cast<Ipv4>(block.used);
    };

    for (int i = 0; i < config.azureus_hosts; ++i) {
      if (rng.Bernoulli(config.azureus_in_endnet_prob)) {
        Host& h = add_endnet_host(
            static_cast<int>(rng.Index(t.endnets_.size())),
            HostKind::kAzureusPeer);
        h.responds_tcp = rng.Bernoulli(config.azureus_tcp_respond_prob);
        h.responds_traceroute =
            rng.Bernoulli(config.azureus_trace_respond_prob);
        continue;
      }
      // Home user on a weighted concentrator.
      const double pick = rng.Uniform(0.0, total);
      const std::size_t c = static_cast<std::size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), pick) -
          cumulative.begin());
      const Router& conc =
          t.routers_[static_cast<std::size_t>(concentrators[c])];
      Host h;
      h.id = static_cast<NodeId>(t.hosts_.size());
      h.kind = HostKind::kAzureusPeer;
      h.endnet_id = -1;
      h.attach_router = conc.id;
      // Last-mile clusters around the concentrator's neighborhood
      // base (shared line technology / loop lengths); the residual
      // spread is what the paper's factor-1.5 pruning cuts on.
      h.access_ms = std::clamp(conc.home_base_ms * rng.Uniform(0.75, 1.55),
                               kHomeAccessMsMin, kHomeAccessMsMax);
      h.pop_id = conc.pop_id;
      const Pop& address_pop =
          rng.Bernoulli(kHomeResellerProb)
              ? t.pops_[rng.Index(num_pops)]
              : t.pops_[static_cast<std::size_t>(conc.pop_id)];
      h.ip = alloc_home_ip(address_pop);
      h.responds_tcp = rng.Bernoulli(config.azureus_tcp_respond_prob);
      h.responds_traceroute =
          rng.Bernoulli(config.azureus_trace_respond_prob);
      t.hosts_.push_back(std::move(h));
    }
  }

  return t;
}

std::vector<NodeId> Topology::HostsOfKind(HostKind kind) const {
  std::vector<NodeId> out;
  for (const Host& h : hosts_) {
    if (h.kind == kind) {
      out.push_back(h.id);
    }
  }
  return out;
}

LatencyMs Topology::RouterToCore(RouterId router) const {
  LatencyMs total = 0.0;
  RouterId r = router;
  while (r != kInvalidRouter) {
    const Router& rt = routers_[ToIndex(r)];
    total += rt.parent_link_ms;
    r = rt.parent;
  }
  return total;
}

std::vector<RouterId> Topology::UpChain(NodeId host_id) const {
  const Host& h = host(host_id);
  std::vector<RouterId> chain;
  RouterId r = h.attach_router;
  while (r != kInvalidRouter) {
    chain.push_back(r);
    r = routers_[ToIndex(r)].parent;
  }
  return chain;
}

LatencyMs Topology::LegToChainRouter(NodeId host_id, RouterId target) const {
  const Host& h = host(host_id);
  LatencyMs leg = h.access_ms;
  RouterId r = h.attach_router;
  while (r != kInvalidRouter) {
    if (r == target) {
      return leg;
    }
    const Router& rt = routers_[ToIndex(r)];
    leg += rt.parent_link_ms;
    r = rt.parent;
  }
  NP_ENSURE(false, "router is not on the host's up-chain");
  return 0.0;
}

LatencyMs Topology::LegToCore(NodeId host_id) const {
  const Host& h = host(host_id);
  return LegToChainRouter(host_id,
                          pops_[ToIndex(h.pop_id)].core_router);
}

namespace {
/// Aggregation chains are short (agg levels + gateway); a fixed buffer
/// keeps the hot paths allocation-free.
constexpr int kMaxChainDepth = 24;
}  // namespace

RouterId Topology::LowestCommonRouter(NodeId a, NodeId b) const {
  const Host& ha = host(a);
  const Host& hb = host(b);
  if (ha.pop_id != hb.pop_id) {
    return kInvalidRouter;
  }
  RouterId chain_a[kMaxChainDepth];
  RouterId chain_b[kMaxChainDepth];
  int len_a = 0;
  for (RouterId r = ha.attach_router; r != kInvalidRouter;
       r = routers_[ToIndex(r)].parent) {
    NP_ENSURE(len_a < kMaxChainDepth, "chain deeper than expected");
    chain_a[len_a++] = r;
  }
  int len_b = 0;
  for (RouterId r = hb.attach_router; r != kInvalidRouter;
       r = routers_[ToIndex(r)].parent) {
    NP_ENSURE(len_b < kMaxChainDepth, "chain deeper than expected");
    chain_b[len_b++] = r;
  }
  // Walk both chains from the core downwards while they agree.
  RouterId common = kInvalidRouter;
  int ia = len_a - 1;
  int ib = len_b - 1;
  while (ia >= 0 && ib >= 0 && chain_a[ia] == chain_b[ib]) {
    common = chain_a[ia];
    --ia;
    --ib;
  }
  return common;
}

LatencyMs Topology::InterPopLatency(int pop_a, int pop_b) const {
  NP_ENSURE(pop_a >= 0 && pop_a < static_cast<int>(pops_.size()) &&
                pop_b >= 0 && pop_b < static_cast<int>(pops_.size()),
            "pop id out of range");
  if (pop_a == pop_b) {
    return 0.0;
  }
  return interpop_[static_cast<std::size_t>(pop_a) * pops_.size() +
                   static_cast<std::size_t>(pop_b)];
}

LatencyMs Topology::LatencyBetween(NodeId a, NodeId b) const {
  if (a == b) {
    return 0.0;
  }
  const Host& ha = host(a);
  const Host& hb = host(b);
  if (ha.endnet_id >= 0 && ha.endnet_id == hb.endnet_id) {
    return endnets_[ToIndex(ha.endnet_id)].lan_ms;
  }
  if (ha.pop_id == hb.pop_id) {
    const RouterId lca = LowestCommonRouter(a, b);
    NP_ENSURE(lca != kInvalidRouter, "same PoP must share the core router");
    return LegToChainRouter(a, lca) + LegToChainRouter(b, lca);
  }
  return LegToCore(a) + InterPopLatency(ha.pop_id, hb.pop_id) + LegToCore(b);
}

LatencyMs Topology::LatencyToRouter(NodeId host_id, RouterId target) const {
  const Host& h = host(host_id);
  const Router& rt = routers_[ToIndex(target)];
  if (rt.pop_id == h.pop_id) {
    // Deepest common point of the host's chain and the router's chain.
    RouterId host_chain[kMaxChainDepth];
    RouterId router_chain[kMaxChainDepth];
    int len_h = 0;
    for (RouterId r = h.attach_router; r != kInvalidRouter;
         r = routers_[ToIndex(r)].parent) {
      NP_ENSURE(len_h < kMaxChainDepth, "chain deeper than expected");
      host_chain[len_h++] = r;
    }
    int len_r = 0;
    for (RouterId r = target; r != kInvalidRouter;
         r = routers_[ToIndex(r)].parent) {
      NP_ENSURE(len_r < kMaxChainDepth, "chain deeper than expected");
      router_chain[len_r++] = r;
    }
    RouterId common = kInvalidRouter;
    int ia = len_h - 1;
    int ib = len_r - 1;
    while (ia >= 0 && ib >= 0 && host_chain[ia] == router_chain[ib]) {
      common = host_chain[ia];
      --ia;
      --ib;
    }
    NP_ENSURE(common != kInvalidRouter, "same PoP must share the core");
    const LatencyMs down = RouterToCore(target) - RouterToCore(common);
    return LegToChainRouter(host_id, common) + down;
  }
  return LegToCore(host_id) + InterPopLatency(h.pop_id, rt.pop_id) +
         RouterToCore(target);
}

std::vector<PathHop> Topology::RouterPath(NodeId a, NodeId b) const {
  std::vector<PathHop> path;
  if (a == b) {
    return path;
  }
  const Host& ha = host(a);
  const Host& hb = host(b);
  if (ha.endnet_id >= 0 && ha.endnet_id == hb.endnet_id) {
    return path;  // stays inside the end-network
  }
  const std::vector<RouterId> chain_a = UpChain(a);
  std::vector<RouterId> chain_b = UpChain(b);

  if (ha.pop_id == hb.pop_id) {
    const RouterId lca = LowestCommonRouter(a, b);
    for (RouterId r : chain_a) {
      path.push_back(PathHop{r, LegToChainRouter(a, r)});
      if (r == lca) {
        break;
      }
    }
    // Descend b's chain below the LCA.
    std::vector<RouterId> down;
    for (RouterId r : chain_b) {
      if (r == lca) {
        break;
      }
      down.push_back(r);
    }
    const LatencyMs to_lca = LegToChainRouter(a, lca);
    const LatencyMs lca_to_core = RouterToCore(lca);
    for (auto it = down.rbegin(); it != down.rend(); ++it) {
      path.push_back(
          PathHop{*it, to_lca + (RouterToCore(*it) - lca_to_core)});
    }
    return path;
  }

  // Different PoPs: full climb, inter-PoP hop, full descent.
  for (RouterId r : chain_a) {
    path.push_back(PathHop{r, LegToChainRouter(a, r)});
  }
  const LatencyMs across =
      LegToCore(a) + InterPopLatency(ha.pop_id, hb.pop_id);
  for (auto it = chain_b.rbegin(); it != chain_b.rend(); ++it) {
    path.push_back(PathHop{*it, across + RouterToCore(*it)});
  }
  return path;
}

int Topology::RouterHopCount(NodeId a, NodeId b) const {
  return static_cast<int>(RouterPath(a, b).size());
}

}  // namespace np::net
