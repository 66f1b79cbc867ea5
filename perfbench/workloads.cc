#include "workloads.h"

#include <cstdio>
#include <sstream>

#include "algos/beaconing.h"
#include "algos/coord_nearest.h"
#include "algos/karger_ruhl.h"
#include "algos/tapestry.h"
#include "algos/tiers.h"
#include "meridian/meridian.h"
#include "util/error.h"
#include "util/rng.h"

namespace perfbench {
namespace {

/// Independent per-purpose seeds from the one workload seed.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t purpose) {
  return np::util::Mix64(seed ^ (purpose * 0x9E3779B97F4A7C15ULL));
}

Workload Churn1e6() {
  // The write path at n = 10^6: ~45k joins and ~30k leaves applied to
  // live overlays; scoring is negligible.
  Workload w;
  w.name = "churn_1e6";
  w.embedded.num_nodes = 1000000;
  w.embedded.dimensions = 3;
  w.embedded.side_ms = 100.0;
  w.embedded.distortion = 0.1;
  w.churn.duration_s = 600.0;
  w.churn.events_per_s = 75.0;
  w.churn.mean_session_s = 200.0;
  w.scenario.initial_overlay = 2000;
  w.scenario.epochs = 3;
  w.scenario.queries_per_epoch = 30;
  w.scenario.num_threads = 1;
  w.algorithms = {"karger-ruhl", "tiers"};
  return w;
}

Workload ServingFaults() {
  // Reads racing writes through the full fault stack and ProbePolicy;
  // Zipf targets repeat.
  Workload w;
  w.name = "serving_faults";
  w.embedded.num_nodes = 20000;
  w.embedded.dimensions = 3;
  w.embedded.side_ms = 100.0;
  w.embedded.distortion = 0.1;
  w.churn.duration_s = 600.0;
  w.churn.events_per_s = 3.0;
  w.churn.mean_session_s = 240.0;
  w.churn.session_model = np::core::SessionModel::kLogNormal;
  w.churn.lognormal_sigma = 1.5;
  w.scenario.initial_overlay = 1000;
  w.scenario.epochs = 6;
  w.scenario.queries_per_epoch = 12000;
  w.scenario.num_threads = 1;
  w.scenario.query_zipf_s = 1.0;
  w.scenario.fault.loss_rate = 0.05;
  w.scenario.fault.max_attempts = 3;
  w.scenario.fault.grey_node_frac = 0.02;
  w.scenario.fault.grey_loss_rate = 0.5;
  w.scenario.fault.asymmetric_loss = 0.01;
  w.scenario.fault.suspicion.strikes = 3;
  w.serving = true;
  w.algorithms = {"karger-ruhl", "tiers"};
  return w;
}

Workload SparseRows() {
  // The shortest-path backend: LRU row misses (a Dijkstra each) set the
  // wall clock.
  Workload w;
  w.name = "sparse_rows";
  w.sparse_world = true;
  w.sparse.num_nodes = 3000;
  w.sparse.extra_edges_per_node = 3;
  w.sparse.min_edge_ms = 1.0;
  w.sparse.max_edge_ms = 50.0;
  w.sparse.row_cache_capacity = 64;
  w.churn.duration_s = 600.0;
  w.churn.events_per_s = 1.0;
  w.churn.join_fraction = 0.6;
  w.scenario.initial_overlay = 600;
  w.scenario.epochs = 3;
  w.scenario.queries_per_epoch = 300;
  w.scenario.num_threads = 1;
  w.algorithms = {"karger-ruhl", "tiers"};
  return w;
}

void AppendDouble(std::ostringstream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "churn_1e6", "serving_faults", "sparse_rows"};
  return names;
}

Workload MakeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "churn_1e6") {
    w = Churn1e6();
  } else if (name == "serving_faults") {
    w = ServingFaults();
  } else if (name == "sparse_rows") {
    w = SparseRows();
  } else {
    throw np::util::Error("unknown workload: " + name);
  }
  w.embedded.seed = SubSeed(seed, 1);
  w.sparse.seed = SubSeed(seed, 2);
  w.churn.seed = SubSeed(seed, 3);
  w.scenario.seed = SubSeed(seed, 4);
  return w;
}

np::core::SpaceFactory MakeWorld(const Workload& workload) {
  return workload.sparse_world
             ? np::core::SpaceFactory::MakeSparse(workload.sparse)
             : np::core::SpaceFactory::MakeEmbedded(workload.embedded);
}

const std::vector<std::string>& AlgorithmNames() {
  static const std::vector<std::string> names = {
      "oracle",    "random",        "meridian",  "karger-ruhl",
      "tiers",     "tiers-rebuild", "beaconing", "tapestry",
      "coord-vivaldi", "coord-pic", "coord-landmark"};
  return names;
}

std::unique_ptr<np::core::NearestPeerAlgorithm> MakeAlgorithm(
    const std::string& name) {
  if (name == "oracle") {
    return std::make_unique<np::core::OracleNearest>();
  }
  if (name == "random") {
    return std::make_unique<np::core::RandomNearest>();
  }
  if (name == "meridian") {
    return std::make_unique<np::meridian::MeridianOverlay>(
        np::meridian::MeridianConfig{});
  }
  if (name == "karger-ruhl") {
    return std::make_unique<np::algos::KargerRuhlNearest>(
        np::algos::KargerRuhlConfig{});
  }
  if (name == "tiers" || name == "tiers-rebuild") {
    np::algos::TiersConfig config;
    config.incremental = name == "tiers";
    return std::make_unique<np::algos::TiersNearest>(config);
  }
  if (name == "beaconing") {
    return std::make_unique<np::algos::BeaconingNearest>(
        np::algos::BeaconingConfig{});
  }
  if (name == "tapestry") {
    return std::make_unique<np::algos::TapestryNearest>(
        np::algos::TapestryConfig{});
  }
  if (name.rfind("coord-", 0) == 0) {
    np::algos::CoordConfig config;
    if (name == "coord-pic") {
      config.scheme = np::algos::CoordScheme::kPic;
    } else if (name == "coord-landmark") {
      config.scheme = np::algos::CoordScheme::kLandmark;
    } else if (name != "coord-vivaldi") {
      throw np::util::Error("unknown algorithm: " + name);
    }
    return std::make_unique<np::algos::CoordNearest>(config);
  }
  throw np::util::Error("unknown algorithm: " + name);
}

std::string CanonicalReport(const np::core::ScenarioReport& r,
                            const np::core::ServingReport* serving) {
  std::ostringstream out;
  out << "algorithm " << r.algorithm << "\n";
  out << "clustered " << r.clustered << " fault " << r.fault_mode << " load "
      << r.load_tracking << " partition " << r.partition_mode
      << " suspicion " << r.suspicion_mode << "\n";
  out << "build_messages " << r.build_messages << " initial "
      << r.initial_members << " final " << r.final_members
      << " failed_queries " << r.failed_queries << "\n";
  out << "messages_per_query ";
  AppendDouble(out, r.messages_per_query);
  out << " maintenance_per_event ";
  AppendDouble(out, r.maintenance_per_event);
  out << "\n";
  const np::core::ProbeCounter::Snapshot& t = r.totals;
  out << "totals query_probes " << t.query_probes << " queries " << t.queries
      << " maintenance_probes " << t.maintenance_probes << " churn_events "
      << t.churn_events << " build_probes " << t.build_probes
      << " failed_probes " << t.failed_probes << " retries " << t.retries
      << " suspicion_skips " << t.suspicion_skips << " probation_probes "
      << t.probation_probes << "\n";
  out << "load total " << r.load.total << " max " << r.load.max
      << " max_node " << r.load.max_node << " median ";
  AppendDouble(out, r.load.median);
  out << " gini ";
  AppendDouble(out, r.load.gini);
  out << "\n";
  for (const np::core::EpochReport& e : r.epochs) {
    out << "epoch " << e.epoch << " time_s ";
    AppendDouble(out, e.time_s);
    out << " live " << e.live_members << " joins " << e.joins << " leaves "
        << e.leaves << " crashes " << e.crashes << " skipped "
        << e.skipped_events << " rebuilt " << e.rebuilt << "\n ";
    const double doubles[] = {e.p_exact_closest,       e.p_correct_cluster,
                              e.p_same_net,            e.mean_found_latency_ms,
                              e.mean_hops,             e.excess_latency_p50_ms,
                              e.excess_latency_p95_ms, e.excess_latency_p99_ms,
                              e.messages_per_query,    e.maintenance_per_event,
                              e.p_query_failed,        e.p_exact_reachable,
                              e.load_median,           e.load_gini};
    for (const double v : doubles) {
      out << " ";
      AppendDouble(out, v);
    }
    out << "\n  maintenance " << e.maintenance_messages << " failed_probes "
        << e.failed_probes << " retries " << e.retries << " quarantined "
        << e.quarantined_peers << " skips " << e.suspicion_skips
        << " probation " << e.probation_probes << " load_max " << e.load_max
        << "\n";
    for (const auto& c : e.components) {
      out << "  component " << c.component << " members " << c.members
          << " queries " << c.queries << " failed " << c.failed_queries
          << " gini ";
      AppendDouble(out, c.load_gini);
      out << "\n";
    }
  }
  if (serving != nullptr) {
    out << "serving readers " << serving->reader_threads << " snapshots "
        << serving->snapshots_published << "\n";
    for (const np::core::StalenessReport& s : serving->staleness) {
      out << "staleness " << s.epoch << " ";
      AppendDouble(out, s.p_exact_live);
      out << " ";
      AppendDouble(out, s.p_found_departed);
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace perfbench
