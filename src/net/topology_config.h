// The settable size of the synthetic last-hop Internet.
//
// The generator reproduces the structure the paper's measurements rely
// on (§2, Fig 1): ISPs deploy PoPs in cities; aggregation-router trees
// fan out from each PoP's core router; end-networks (campus / corporate
// LANs) hang off aggregation routers; home users attach directly to
// access concentrators with large last-mile latencies. Inter-PoP
// latencies follow city geography.
//
// What is left here is what some caller changes: how many cities,
// providers, PoPs, router levels and end-networks the world has, how
// many DNS servers and Azureus peers it holds, and how those peers
// answer and where they sit. The calibration the paper fixes —
// geography, link and last-mile latencies, router behaviour, the DNS
// population's shape and the address plan — is the set of constants
// on Topology (net/topology.h).
//
// Presets at the bottom match the paper's two measurement populations:
// ~22k recursive DNS servers (§3.1) and ~156k Azureus peers (§3.2).
#pragma once

#include <cstdint>

namespace np::net {

struct TopologyConfig {
  // --- Geography -----------------------------------------------------------
  int num_cities = 40;

  // --- Providers -----------------------------------------------------------
  int num_ases = 25;
  int min_pops_per_as = 2;
  int max_pops_per_as = 7;

  // --- Intra-PoP aggregation trees ------------------------------------------
  /// Router levels below each PoP core router (core = level 0).
  int agg_levels = 3;

  // --- End-networks ----------------------------------------------------------
  int endnets_per_pop_min = 4;
  int endnets_per_pop_max = 24;

  // --- DNS server population (§3.1) ------------------------------------------
  int dns_recursive_hosts = 0;

  // --- Azureus peer population (§3.2) ----------------------------------------
  int azureus_hosts = 0;
  /// Probability an Azureus peer sits inside an end-network; the rest
  /// are home users on access concentrators.
  double azureus_in_endnet_prob = 0.30;
  /// Responsiveness of Azureus peers (most peers answer neither TCP
  /// pings nor traceroutes; the paper kept 5904 of 156k).
  double azureus_tcp_respond_prob = 0.10;
  double azureus_trace_respond_prob = 0.08;
};

/// Rejects a config the generator cannot build. Topology::Generate runs
/// it; np_run runs it on every topology spec.
void ValidateTopologyConfig(const TopologyConfig& config);

/// ~22k recursive DNS servers for the §3.1 prediction study.
TopologyConfig DnsStudyConfig();

/// ~156k Azureus peers for the §3.2 clustering study. (Figs 6-7, 10-11.)
TopologyConfig AzureusStudyConfig();

/// Small world for unit tests: a few hundred hosts.
TopologyConfig SmallTestConfig();

}  // namespace np::net
