// Core micro-benchmarks with machine-readable output (BENCH_core.json):
// the hot building blocks of the §4 simulation pipeline — Floyd-Warshall
// metric repair (serial reference vs blocked/parallel), Meridian
// build/query, the full clustered experiment serial vs parallel, truth
// scoring on the embedded backend (generic per-pair scan vs the pruned
// EmbeddedSpace::ClosestOf kernel), world generation, Chord lookups,
// a coord-vivaldi overlay build (coord_vivaldi_build), topology
// latency probes and the path-graph close-peer scan.
//
// The derived speedup_* metrics are the acceptance numbers for the
// parallel simulation core: on an N-core box, metric_repair and the
// clustered experiment should both approach Nx, and every *_match /
// *_agreement metric must be 1 — matches are bitwise (parallel vs the
// same code path on one thread, or the embedded truth kernel vs the
// generic scan); metric_repair_serial_agreement
// compares blocked vs the serial triple loop within rounding, since
// the tile schedule associates float sums differently.
//
// NP_BENCH_SCALE=quick shrinks every workload (CI smoke); the default
// runs at paper scale (n = 2000 repair, ~2500-peer world, 5000
// queries).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "algos/coord_nearest.h"
#include "bench/common.h"
#include "bench/reporter.h"
#include "core/experiment.h"
#include "dht/chord.h"
#include "matrix/embedded_space.h"
#include "matrix/generators.h"
#include "matrix/latency_matrix.h"
#include "measure/path_graph.h"
#include "meridian/meridian.h"
#include "net/tools.h"
#include "util/parallel.h"
#include "util/rng.h"

#include "util/contract.h"

namespace {

using np::LatencyMs;
using np::NodeId;

np::matrix::LatencyMatrix RandomMatrix(NodeId n, std::uint64_t seed) {
  np::matrix::LatencyMatrix m(n);
  np::util::Rng rng(seed);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      m.Set(i, j, rng.Uniform(0.1, 250.0));
    }
  }
  return m;
}

bool SameMatrix(const np::matrix::LatencyMatrix& a,
                const np::matrix::LatencyMatrix& b) {
  for (NodeId i = 0; i < a.size(); ++i) {
    for (NodeId j = 0; j < a.size(); ++j) {
      if (a.At(i, j) != b.At(i, j)) {
        return false;
      }
    }
  }
  return true;
}

double MaxRelDiff(const np::matrix::LatencyMatrix& a,
                  const np::matrix::LatencyMatrix& b) {
  double worst = 0.0;
  for (NodeId i = 0; i < a.size(); ++i) {
    for (NodeId j = 0; j < a.size(); ++j) {
      const double denom = std::max(std::abs(a.At(i, j)), 1e-12);
      worst = std::max(worst, std::abs(a.At(i, j) - b.At(i, j)) / denom);
    }
  }
  return worst;
}

bool SameMetrics(const np::core::ClusteredMetrics& a,
                 const np::core::ClusteredMetrics& b) {
  return a.p_exact_closest == b.p_exact_closest &&
         a.p_correct_cluster == b.p_correct_cluster &&
         a.p_same_net == b.p_same_net &&
         a.median_wrong_hub_latency_ms == b.median_wrong_hub_latency_ms &&
         a.mean_found_latency_ms == b.mean_found_latency_ms &&
         a.mean_probes == b.mean_probes && a.mean_hops == b.mean_hops;
}

void BenchMetricRepair(np::bench::Reporter& reporter, NodeId n) {
  const auto base = RandomMatrix(n, 1);
  const double relaxations =
      static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(n);

  auto serial = base;
  {
    auto phase = reporter.Phase("metric_repair_serial", relaxations);
    serial.MetricRepairSerial();
  }
  auto blocked1 = base;
  {
    auto phase = reporter.Phase("metric_repair_blocked_1t", relaxations);
    blocked1.MetricRepair(1);
  }
  auto blockedN = base;
  {
    auto phase = reporter.Phase("metric_repair_blocked_all", relaxations);
    blockedN.MetricRepair(0);
  }
  reporter.Derive("speedup_metric_repair_blocked_1t",
                  reporter.PhaseMs("metric_repair_serial") /
                      reporter.PhaseMs("metric_repair_blocked_1t"));
  reporter.Derive("speedup_metric_repair_blocked_all",
                  reporter.PhaseMs("metric_repair_serial") /
                      reporter.PhaseMs("metric_repair_blocked_all"));
  // Thread invariance is exact; agreement with the serial loop is to
  // rounding only (the tile schedule associates float sums
  // differently), so it gets a tolerance, not a bitwise check.
  reporter.Derive("metric_repair_match_threads",
                  SameMatrix(blocked1, blockedN) ? 1.0 : 0.0);
  reporter.Derive("metric_repair_serial_agreement",
                  MaxRelDiff(serial, blocked1) <= 1e-9 ? 1.0 : 0.0);
}

void BenchClusteredExperiment(np::bench::Reporter& reporter, bool quick) {
  np::matrix::ClusteredConfig config;
  config.nets_per_cluster = 25;
  config.num_clusters = quick ? 8 : 50;  // full: 1250 nets -> 2500 peers
  config.peers_per_net = 2;
  np::util::Rng world_rng(4);
  const auto world = np::matrix::GenerateClustered(config, world_rng);

  np::core::ExperimentConfig econfig;
  econfig.overlay_size = world.layout.peer_count() - 100;
  econfig.num_queries = quick ? 300 : 5000;

  // Reference phase: the serial overlay Build that RunClusteredExperiment
  // performs internally before its (parallel) query loop. Timed
  // standalone so the query-loop speedup can be estimated — the total
  // experiment speedup is Amdahl-capped by this serial prefix.
  {
    const np::core::MatrixSpace space(world.matrix);
    std::vector<NodeId> members;
    for (NodeId i = 0; i < econfig.overlay_size; ++i) {
      members.push_back(i);
    }
    np::meridian::MeridianOverlay algo{np::meridian::MeridianConfig{}};
    np::util::Rng rng(5);
    auto phase = reporter.Phase("clustered_build_reference",
                                econfig.overlay_size);
    algo.Build(space, members, rng);
  }

  np::core::ClusteredMetrics serial_metrics;
  np::core::ClusteredMetrics parallel_metrics;
  {
    np::meridian::MeridianOverlay algo{np::meridian::MeridianConfig{}};
    econfig.num_threads = 1;
    np::util::Rng rng(5);
    auto phase = reporter.Phase("clustered_experiment_serial",
                                econfig.num_queries);
    serial_metrics =
        np::core::RunClusteredExperiment(world, algo, econfig, rng);
  }
  {
    np::meridian::MeridianOverlay algo{np::meridian::MeridianConfig{}};
    econfig.num_threads = 0;
    np::util::Rng rng(5);
    auto phase = reporter.Phase("clustered_experiment_parallel",
                                econfig.num_queries);
    parallel_metrics =
        np::core::RunClusteredExperiment(world, algo, econfig, rng);
  }
  reporter.Derive("speedup_clustered_experiment",
                  reporter.PhaseMs("clustered_experiment_serial") /
                      reporter.PhaseMs("clustered_experiment_parallel"));
  // Query-loop-only estimate: subtract the serial build prefix from
  // both sides (clamped to stay meaningful on coarse clocks).
  const double build_ms = reporter.PhaseMs("clustered_build_reference");
  const double serial_q = std::max(
      reporter.PhaseMs("clustered_experiment_serial") - build_ms, 1e-3);
  const double parallel_q = std::max(
      reporter.PhaseMs("clustered_experiment_parallel") - build_ms, 1e-3);
  reporter.Derive("speedup_clustered_queries_est", serial_q / parallel_q);
  reporter.Derive("clustered_experiment_match",
                  SameMetrics(serial_metrics, parallel_metrics) ? 1.0 : 0.0);
  reporter.Derive("clustered_p_exact_closest",
                  parallel_metrics.p_exact_closest);
}

void BenchMeridian(np::bench::Reporter& reporter, NodeId n, int queries) {
  np::util::Rng world_rng(6);
  np::matrix::EuclideanConfig config;
  const auto world =
      np::matrix::GenerateEuclidean(n + 100, config, world_rng);
  const np::core::MatrixSpace space(world.matrix);
  std::vector<NodeId> members;
  for (NodeId i = 0; i < n; ++i) {
    members.push_back(i);
  }
  np::meridian::MeridianOverlay overlay{np::meridian::MeridianConfig{}};
  {
    np::util::Rng rng(7);
    auto phase = reporter.Phase("meridian_build", n);
    overlay.Build(space, members, rng);
  }
  {
    const np::core::MeteredSpace metered(space);
    np::util::Rng rng(8);
    auto phase = reporter.Phase("meridian_query", queries);
    for (int q = 0; q < queries; ++q) {
      const NodeId target = n + static_cast<NodeId>(q % 100);
      const auto result = overlay.FindNearest(target, metered, rng);
      if (result.found == np::kInvalidNode) {
        return;
      }
    }
  }
}

/// Forwards Latency and keeps the generic ClosestOf: the per-pair path
/// every decorator of a backend takes.
class GenericSpace final : public np::core::LatencySpace {
 public:
  explicit GenericSpace(const np::core::LatencySpace& inner) : inner_(&inner) {}
  NodeId size() const override { return inner_->size(); }
  LatencyMs Latency(NodeId a, NodeId b) const override {
    return inner_->Latency(a, b);
  }

 private:
  const np::core::LatencySpace* inner_;
};

// Truth scoring: one ClosestOf over the members per target, on the
// serving_faults world shape (n = 2e4, 3-D, distortion 0.1, ~1,300
// members). Phases count members scanned, so ns per member is
// 1e9 / ops_per_sec; truth_scan_match = 1 iff both paths return the
// same member and latency bits for every target.
void BenchTruthScan(np::bench::Reporter& reporter, bool quick) {
  np::matrix::EmbeddedSpaceConfig config;
  config.num_nodes = 20000;
  config.dimensions = 3;
  config.distortion = 0.1;
  config.seed = 16;
  const np::matrix::EmbeddedSpace kernel(config);
  const GenericSpace generic(kernel);
  np::util::Rng rng(17);
  std::vector<NodeId> members;
  for (NodeId n = 0; n < config.num_nodes; ++n) {
    if (rng.Index(15) == 0) {
      members.push_back(n);
    }
  }
  std::vector<NodeId> targets(quick ? 500 : 4000);
  for (NodeId& t : targets) {
    t = static_cast<NodeId>(
        rng.Index(static_cast<std::size_t>(config.num_nodes)));
  }
  const double scanned =
      static_cast<double>(targets.size()) * static_cast<double>(members.size());
  std::vector<NodeId> found(targets.size());
  std::vector<LatencyMs> found_ms(targets.size());
  {
    auto phase = reporter.Phase("truth_scan_generic", scanned);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      found[i] = generic.ClosestOf(targets[i], members, &found_ms[i]);
    }
  }
  bool match = true;
  {
    auto phase = reporter.Phase("truth_scan_kernel", scanned);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      LatencyMs ms = 0.0;
      const NodeId best = kernel.ClosestOf(targets[i], members, &ms);
      match = match && best == found[i] && ms == found_ms[i];
    }
  }
  const double per_member_ms = 1.0 / scanned;
  reporter.Derive("truth_scan_generic_ns_per_member",
                  reporter.PhaseMs("truth_scan_generic") * 1e6 * per_member_ms);
  reporter.Derive("truth_scan_kernel_ns_per_member",
                  reporter.PhaseMs("truth_scan_kernel") * 1e6 * per_member_ms);
  reporter.Derive("speedup_truth_scan_kernel",
                  reporter.PhaseMs("truth_scan_generic") /
                      reporter.PhaseMs("truth_scan_kernel"));
  reporter.Derive("truth_scan_match", match ? 1.0 : 0.0);
}

// Raw costs of the remaining building blocks (kept from the original
// micro suite so their perf trajectory stays tracked): clustered world
// generation, Chord lookups, a coord-vivaldi overlay build, topology
// latency queries, path-graph close-peer scans.
void BenchBuildingBlocks(np::bench::Reporter& reporter, bool quick) {
  {
    np::matrix::ClusteredConfig config;
    config.nets_per_cluster = 25;
    config.num_clusters = quick ? 10 : 50;
    np::util::Rng rng(9);
    auto phase = reporter.Phase("generate_clustered",
                                config.num_clusters * 25 * 2);
    const auto world = np::matrix::GenerateClustered(config, rng);
    if (world.matrix.size() == 0) {
      return;
    }
  }
  {
    const int n = quick ? 1024 : 16384;
    std::vector<NodeId> nodes;
    for (NodeId i = 0; i < n; ++i) {
      nodes.push_back(i);
    }
    const np::dht::ChordRing ring(nodes, np::dht::ChordConfig{});
    np::util::Rng rng(10);
    const int lookups = quick ? 2000 : 50000;
    auto phase = reporter.Phase("chord_lookup", lookups);
    for (int i = 0; i < lookups; ++i) {
      const auto result = ring.Lookup(rng(), rng);
      if (result.owner == np::kInvalidNode) {
        return;
      }
    }
  }
  {
    const NodeId n = quick ? 200 : 500;
    np::util::Rng world_rng(11);
    np::matrix::EuclideanConfig config;
    const auto world = np::matrix::GenerateEuclidean(n, config, world_rng);
    const np::core::MatrixSpace space(world.matrix);
    std::vector<NodeId> members;
    for (NodeId i = 0; i < n; ++i) {
      members.push_back(i);
    }
    np::algos::CoordNearest vivaldi(np::algos::CoordConfig{});
    np::util::Rng rng(12);
    auto phase = reporter.Phase("coord_vivaldi_build", n);
    vivaldi.Build(space, members, rng);
    if (vivaldi.members().empty()) {
      return;
    }
  }
  {
    np::net::TopologyConfig config = np::net::SmallTestConfig();
    config.azureus_hosts = quick ? 1000 : 3000;
    np::util::Rng world_rng(13);
    const auto topology = np::net::Topology::Generate(config, world_rng);
    const auto n = static_cast<NodeId>(topology.hosts().size());
    np::util::Rng rng(14);
    const int probes = quick ? 20000 : 200000;
    {
      auto phase = reporter.Phase("topology_latency", probes);
      double sink = 0.0;
      for (int i = 0; i < probes; ++i) {
        const auto a = static_cast<NodeId>(rng.Index(
            static_cast<std::size_t>(n)));
        const auto b = static_cast<NodeId>(rng.Index(
            static_cast<std::size_t>(n)));
        sink += topology.LatencyBetween(a, b);
      }
      if (sink < 0.0) {
        return;
      }
    }
    np::net::Tools tools(topology, np::util::Rng(15));
    const auto graph = np::measure::PathGraph::Build(
        topology, tools,
        topology.HostsOfKind(np::net::HostKind::kAzureusPeer));
    const int scans = quick ? 200 : 2000;
    auto phase = reporter.Phase("path_graph_close_peers", scans);
    for (int i = 0; i < scans; ++i) {
      const auto close = graph.ClosePeers(
          graph.peers()[static_cast<std::size_t>(i) % graph.peers().size()],
          10.0);
      if (close.size() > graph.peers().size()) {
        return;
      }
    }
  }
}

}  // namespace

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "micro_core",
      "raw costs of the simulation core: blocked/parallel Floyd-Warshall "
      "vs serial, Meridian build/query, clustered experiment serial vs "
      "parallel, truth scoring generic vs the embedded kernel.");
  const bool quick = np::bench::QuickScale();

  np::bench::Reporter reporter("core");
  np::bench::Stopwatch total;

  BenchMetricRepair(reporter, quick ? 512 : 2000);
  BenchClusteredExperiment(reporter, quick);
  BenchMeridian(reporter, quick ? 400 : 2400, quick ? 200 : 1000);
  BenchTruthScan(reporter, quick);
  BenchBuildingBlocks(reporter, quick);

  reporter.Derive("total_wall_ms", total.ElapsedMs());
  reporter.Derive("query_loop_threads",
                  np::util::ResolveThreadCount(0));
  reporter.Write();
  np::bench::PrintNote(
      "speedup_* compare a serial or generic reference against the "
      "blocked/parallel path or the embedded kernel; *_match = 1 means "
      "bit-identical, *_agreement = 1 means within rounding of serial.");
  return 0;
}
