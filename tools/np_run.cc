// np_run — config-driven dynamic-overlay scenario runner.
//
//   np_run scenarios/clustered_churn.json [--out FILE] [--threads N]
//   np_run scenarios/clustered_churn.json --validate
//
// Reads a JSON scenario spec (world + churn schedule + engine
// parameters + algorithm list), drives every algorithm through the
// same churn schedule with the scenario engine, prints a per-epoch
// table, and writes a machine-readable NP_RUN_<name>.json report with
// accuracy *and* traffic metrics (messages/query, maintenance
// messages/churn-event). See docs/SCENARIOS.md for the full schema.
//
// Every run starts with a strict schema pass: unknown keys anywhere in
// the spec are errors, so the parser and the documentation cannot
// silently drift apart. `--validate` stops after that pass (plus a
// cheap churn-schedule construction), which is what the CI docs job
// runs over every scenarios/*.json.
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/beaconing.h"
#include "algos/coord_nearest.h"
#include "algos/karger_ruhl.h"
#include "algos/tapestry.h"
#include "algos/tiers.h"
#include "core/scenario.h"
#include "core/serving.h"
#include "core/space_factory.h"
#include "matrix/embedded_space.h"
#include "matrix/generators.h"
#include "matrix/sparse_space.h"
#include "mech/hybrid.h"
#include "mech/topology_space.h"
#include "meridian/meridian.h"
#include "net/topology.h"
#include "util/error.h"
#include "util/json.h"
#include "util/table.h"

#include "util/contract.h"

namespace {

using np::NodeId;
using np::core::ChurnEvent;
using np::core::ChurnEventType;
using np::core::ChurnSchedule;
using np::core::ChurnScheduleConfig;
using np::core::LatencySpace;
using np::core::NearestPeerAlgorithm;
using np::core::RunScenario;
using np::core::RunServing;
using np::core::ScenarioConfig;
using np::core::ScenarioReport;
using np::core::ServingConfig;
using np::core::ServingReport;
using np::util::JsonValue;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw np::util::Error("cannot open scenario spec: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- World construction -----------------------------------------------------

/// Owns whichever world variant the spec asked for, and exposes the
/// pieces the engine needs. Matrix-backed and implicit worlds go
/// through the SpaceFactory; the topology world keeps its own wiring
/// (the §5 mechanisms need the router/IP structure, which lives above
/// the factory's layer).
struct World {
  std::string type;
  std::unique_ptr<np::core::SpaceFactory> factory;
  // Topology-backed world (the §5 mechanisms need routers + IPs).
  std::unique_ptr<np::net::Topology> topology;
  std::unique_ptr<np::mech::TopologySpace> topology_space;

  const LatencySpace& space() const {
    return topology_space ? static_cast<const LatencySpace&>(*topology_space)
                          : factory->space();
  }
  const np::matrix::ClusterLayout* layout() const {
    return factory ? factory->layout() : nullptr;
  }
  /// Overlay-eligible nodes; empty = every node of the space.
  std::vector<NodeId> population;
};

np::matrix::SparseTopologyConfig ParseSparseConfig(const JsonValue& spec) {
  np::matrix::SparseTopologyConfig config;
  config.num_nodes =
      static_cast<NodeId>(spec.GetInt("num_nodes", config.num_nodes));
  config.extra_edges_per_node = static_cast<int>(
      spec.GetInt("extra_edges_per_node", config.extra_edges_per_node));
  config.min_edge_ms = spec.GetDouble("min_edge_ms", config.min_edge_ms);
  config.max_edge_ms = spec.GetDouble("max_edge_ms", config.max_edge_ms);
  config.row_cache_capacity = static_cast<std::size_t>(spec.GetInt(
      "row_cache_capacity",
      static_cast<std::int64_t>(config.row_cache_capacity)));
  config.seed = spec.GetUint64("seed", 7);
  return config;
}

World BuildWorld(const JsonValue& spec) {
  World world;
  world.type = spec.GetString("type", "clustered");
  const std::uint64_t seed = spec.GetUint64("seed", 7);

  if (world.type == "clustered") {
    np::matrix::ClusteredConfig config;
    config.num_clusters =
        static_cast<int>(spec.GetInt("num_clusters", config.num_clusters));
    config.nets_per_cluster = static_cast<int>(
        spec.GetInt("nets_per_cluster", config.nets_per_cluster));
    config.peers_per_net =
        static_cast<int>(spec.GetInt("peers_per_net", config.peers_per_net));
    config.delta = spec.GetDouble("delta", config.delta);
    config.same_net_latency_ms =
        spec.GetDouble("same_net_latency_ms", config.same_net_latency_ms);
    world.factory = std::make_unique<np::core::SpaceFactory>(
        np::core::SpaceFactory::MakeClustered(config, seed));
    return world;
  }
  if (world.type == "euclidean") {
    np::matrix::EuclideanConfig config;
    config.dimensions =
        static_cast<int>(spec.GetInt("dimensions", config.dimensions));
    config.side_ms = spec.GetDouble("side_ms", config.side_ms);
    config.jitter = spec.GetDouble("jitter", config.jitter);
    const NodeId n = static_cast<NodeId>(spec.GetInt("num_nodes", 1000));
    world.factory = std::make_unique<np::core::SpaceFactory>(
        np::core::SpaceFactory::MakeEuclidean(n, config, seed));
    return world;
  }
  if (world.type == "embedded") {
    // Implicit backend: O(n * d) memory, latencies recomputed per
    // probe — the world type the 10^3..10^5 scale sweep runs on.
    np::matrix::EmbeddedSpaceConfig config;
    config.num_nodes =
        static_cast<NodeId>(spec.GetInt("num_nodes", config.num_nodes));
    config.dimensions =
        static_cast<int>(spec.GetInt("dimensions", config.dimensions));
    config.side_ms = spec.GetDouble("side_ms", config.side_ms);
    config.distortion = spec.GetDouble("distortion", config.distortion);
    config.seed = seed;
    world.factory = std::make_unique<np::core::SpaceFactory>(
        np::core::SpaceFactory::MakeEmbedded(config));
    return world;
  }
  if (world.type == "sparse") {
    // Implicit shortest-path backend: O(n * degree) memory plus an LRU
    // row cache whose hit/miss/eviction counters land in the report —
    // the data that makes row_cache_capacity tunable at n = 10^5.
    world.factory = std::make_unique<np::core::SpaceFactory>(
        np::core::SpaceFactory::MakeSparse(ParseSparseConfig(spec)));
    return world;
  }
  if (world.type == "topology") {
    np::util::Rng rng(seed);
    np::net::TopologyConfig config = np::net::SmallTestConfig();
    config.num_cities =
        static_cast<int>(spec.GetInt("num_cities", config.num_cities));
    config.num_ases =
        static_cast<int>(spec.GetInt("num_ases", config.num_ases));
    config.azureus_hosts =
        static_cast<int>(spec.GetInt("azureus_hosts", 2000));
    config.dns_recursive_hosts = 0;
    // Overlay participants cooperate: they answer probes.
    config.azureus_tcp_respond_prob = 1.0;
    config.azureus_trace_respond_prob = 1.0;
    world.topology = std::make_unique<np::net::Topology>(
        np::net::Topology::Generate(config, rng));
    world.topology_space =
        std::make_unique<np::mech::TopologySpace>(*world.topology);
    world.population =
        world.topology->HostsOfKind(np::net::HostKind::kAzureusPeer);
    return world;
  }
  throw np::util::Error(
      "unknown world type: " + world.type +
      " (expected clustered | euclidean | embedded | sparse | topology)");
}

// --- Churn schedule ---------------------------------------------------------

np::core::SessionModel ParseSessionModel(const std::string& name) {
  if (name == "exponential") {
    return np::core::SessionModel::kExponential;
  }
  if (name == "lognormal") {
    return np::core::SessionModel::kLogNormal;
  }
  if (name == "pareto") {
    return np::core::SessionModel::kPareto;
  }
  throw np::util::Error("unknown session_model: " + name +
                        " (expected exponential | lognormal | pareto)");
}

ChurnSchedule BuildSchedule(const JsonValue& spec) {
  const std::string mode = spec.GetString("mode", "poisson");
  if (mode == "trace") {
    std::vector<ChurnEvent> events;
    for (const JsonValue& entry : spec.at("trace").items()) {
      ChurnEvent event;
      event.time_s = entry.GetDouble("t", 0.0);
      const std::string op = entry.at("op").AsString();
      if (op == "join") {
        event.type = ChurnEventType::kJoin;
      } else if (op == "leave") {
        event.type = ChurnEventType::kLeave;
      } else if (op == "crash") {
        event.type = ChurnEventType::kCrash;
      } else {
        throw np::util::Error("trace op must be join|leave|crash, got: " +
                              op);
      }
      event.join_of = entry.GetInt("join_of", -1);
      event.node = static_cast<NodeId>(entry.GetInt("node", np::kInvalidNode));
      events.push_back(event);
    }
    return ChurnSchedule::FromTrace(std::move(events));
  }
  if (mode == "poisson") {
    ChurnScheduleConfig config;
    config.duration_s = spec.GetDouble("duration_s", config.duration_s);
    config.events_per_s = spec.GetDouble("events_per_s", config.events_per_s);
    config.join_fraction =
        spec.GetDouble("join_fraction", config.join_fraction);
    config.mean_session_s =
        spec.GetDouble("mean_session_s", config.mean_session_s);
    config.session_model =
        ParseSessionModel(spec.GetString("session_model", "exponential"));
    config.lognormal_sigma =
        spec.GetDouble("lognormal_sigma", config.lognormal_sigma);
    config.pareto_alpha = spec.GetDouble("pareto_alpha", config.pareto_alpha);
    config.crash_fraction =
        spec.GetDouble("crash_frac", config.crash_fraction);
    if (const JsonValue* diurnal = spec.Find("diurnal")) {
      config.diurnal.day_s =
          diurnal->GetDouble("day_s", config.diurnal.day_s);
      config.diurnal.amplitude =
          diurnal->GetDouble("amplitude", config.diurnal.amplitude);
      config.diurnal.peak_frac =
          diurnal->GetDouble("peak_frac", config.diurnal.peak_frac);
      config.diurnal.multipliers =
          diurnal->GetDoubleArray("multipliers", {});
    }
    config.seed = spec.GetUint64("seed", config.seed);
    return ChurnSchedule::Poisson(config);
  }
  throw np::util::Error("unknown churn mode: " + mode +
                        " (expected poisson | trace)");
}

// --- Spec validation --------------------------------------------------------
//
// Strict schema checking: every object in the spec may only carry keys
// the runner actually reads. A typo'd or stale key fails loudly here
// instead of silently falling back to a default — and the allowed-key
// tables below are exactly what docs/SCENARIOS.md documents, which the
// CI docs job keeps honest by running `--validate` over every
// committed scenario.

void RequireKeys(const JsonValue& object, const std::string& where,
                 std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : object.entries()) {
    bool known = false;
    for (const char* candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string hint;
      for (const char* candidate : allowed) {
        if (!hint.empty()) {
          hint += ", ";
        }
        hint += candidate;
      }
      throw np::util::Error("unknown key \"" + key + "\" in " + where +
                            " (allowed: " + hint + ")");
    }
  }
}

/// Single source of truth for the accepted algorithm names: the
/// validator, the factory's fallthrough, and both error hints derive
/// from these (the factory's dispatch chain is necessarily separate,
/// but an entry missing there now throws instead of drifting).
constexpr const char* kSimpleAlgorithms[] = {
    "oracle",        "random",        "meridian",
    "karger-ruhl",   "tiers",         "tiers-rebuild",
    "beaconing",     "tapestry",      "coord-vivaldi",
    "coord-pic",     "coord-landmark"};
constexpr const char* kHybridMechanisms[] = {"ucl", "prefix", "multicast",
                                             "registry"};

std::string AlgorithmHint() {
  std::string hint;
  for (const char* name : kSimpleAlgorithms) {
    if (!hint.empty()) {
      hint += " | ";
    }
    hint += name;
  }
  hint += " | hybrid-{";
  for (std::size_t i = 0; i < std::size(kHybridMechanisms); ++i) {
    hint += i == 0 ? "" : ",";
    hint += kHybridMechanisms[i];
  }
  hint += "}";
  return hint;
}

void ValidateAlgorithmName(const std::string& name,
                           const std::string& world_type) {
  for (const char* known : kSimpleAlgorithms) {
    if (name == known) {
      return;
    }
  }
  if (name.rfind("hybrid-", 0) == 0) {
    const std::string mechanism = name.substr(7);
    for (const char* known : kHybridMechanisms) {
      if (mechanism == known) {
        if (world_type != "topology") {
          throw np::util::Error(
              "algorithm " + name +
              " needs a topology world (the §5 mechanisms use routers/IPs)");
        }
        return;
      }
    }
    throw np::util::Error("unknown hybrid mechanism: " + mechanism);
  }
  throw np::util::Error("unknown algorithm: " + name +
                        " (expected " + AlgorithmHint() + ")");
}

void ValidateSpec(const JsonValue& spec) {
  RequireKeys(spec, "the scenario spec",
              {"name", "description", "world", "churn", "scenario",
               "algorithms"});

  const JsonValue& world = spec.at("world");
  const std::string world_type = world.GetString("type", "clustered");
  if (world_type == "clustered") {
    RequireKeys(world, "world (clustered)",
                {"type", "seed", "num_clusters", "nets_per_cluster",
                 "peers_per_net", "delta", "same_net_latency_ms"});
  } else if (world_type == "euclidean") {
    RequireKeys(world, "world (euclidean)",
                {"type", "seed", "num_nodes", "dimensions", "side_ms",
                 "jitter"});
  } else if (world_type == "embedded") {
    RequireKeys(world, "world (embedded)",
                {"type", "seed", "num_nodes", "dimensions", "side_ms",
                 "distortion"});
  } else if (world_type == "sparse") {
    RequireKeys(world, "world (sparse)",
                {"type", "seed", "num_nodes", "extra_edges_per_node",
                 "min_edge_ms", "max_edge_ms", "row_cache_capacity"});
    // Weight ranges the exact shortest-path kernel cannot cover fail
    // here, before any world is generated.
    np::matrix::ValidateSparseConfig(ParseSparseConfig(world));
  } else if (world_type == "topology") {
    RequireKeys(world, "world (topology)",
                {"type", "seed", "num_cities", "num_ases", "azureus_hosts"});
  } else {
    throw np::util::Error(
        "unknown world type: " + world_type +
        " (expected clustered | euclidean | embedded | sparse | topology)");
  }

  const JsonValue& churn = spec.at("churn");
  const std::string mode = churn.GetString("mode", "poisson");
  if (mode == "poisson") {
    RequireKeys(churn, "churn (poisson)",
                {"mode", "duration_s", "events_per_s", "join_fraction",
                 "mean_session_s", "session_model", "lognormal_sigma",
                 "pareto_alpha", "crash_frac", "diurnal", "blackouts",
                 "seed"});
    ParseSessionModel(churn.GetString("session_model", "exponential"));
    if (const JsonValue* diurnal = churn.Find("diurnal")) {
      RequireKeys(*diurnal, "churn.diurnal",
                  {"day_s", "amplitude", "peak_frac", "multipliers"});
    }
  } else if (mode == "trace") {
    RequireKeys(churn, "churn (trace)", {"mode", "trace", "blackouts",
                                         "seed"});
    for (const JsonValue& entry : churn.at("trace").items()) {
      RequireKeys(entry, "churn.trace entry", {"t", "op", "join_of", "node"});
    }
  } else {
    throw np::util::Error("unknown churn mode: " + mode +
                          " (expected poisson | trace)");
  }
  if (const JsonValue* blackouts = churn.Find("blackouts")) {
    if (world_type != "clustered") {
      throw np::util::Error(
          "churn.blackouts needs a clustered world (victims are a cluster)");
    }
    for (const JsonValue& entry : blackouts->items()) {
      RequireKeys(entry, "churn.blackouts entry", {"t", "cluster"});
    }
  }

  const JsonValue& engine = spec.at("scenario");
  RequireKeys(engine, "scenario",
              {"initial_overlay", "epochs", "queries_per_epoch",
               "num_threads", "tie_epsilon_ms", "measurement_noise_frac",
               "measurement_noise_floor_ms", "fault", "query_zipf_s",
               "mode", "reader_threads", "check_replay", "seed"});
  const std::string engine_mode = engine.GetString("mode", "scenario");
  if (engine_mode != "scenario" && engine_mode != "serving") {
    throw np::util::Error("unknown scenario.mode: " + engine_mode +
                          " (expected scenario | serving)");
  }
  if (engine_mode != "serving" &&
      (engine.Find("reader_threads") != nullptr ||
       engine.Find("check_replay") != nullptr)) {
    throw np::util::Error(
        "scenario.reader_threads / scenario.check_replay require "
        "\"mode\": \"serving\"");
  }
  if (const JsonValue* fault = engine.Find("fault")) {
    RequireKeys(*fault, "scenario.fault",
                {"loss_rate", "retry", "track_load", "partitions",
                 "grey_nodes", "asymmetric_loss", "suspicion"});
    if (const JsonValue* partitions = fault->Find("partitions")) {
      if (world_type != "clustered") {
        throw np::util::Error(
            "fault.partitions splits cluster groups and needs a clustered "
            "world");
      }
      for (const JsonValue& entry : partitions->items()) {
        RequireKeys(entry, "fault.partitions entry",
                    {"start_epoch", "end_epoch", "groups"});
        if (entry.at("groups").items().size() < 2) {
          throw np::util::Error(
              "fault.partitions entry needs at least two groups");
        }
      }
    }
    if (const JsonValue* grey = fault->Find("grey_nodes")) {
      RequireKeys(*grey, "fault.grey_nodes", {"frac", "loss_rate"});
    }
    if (const JsonValue* suspicion = fault->Find("suspicion")) {
      RequireKeys(*suspicion, "fault.suspicion",
                  {"strikes", "probation_epochs", "probation_backoff"});
    }
  }

  for (const JsonValue& entry : spec.at("algorithms").items()) {
    ValidateAlgorithmName(entry.AsString(), world_type);
  }
}

// --- Algorithm factory ------------------------------------------------------

std::unique_ptr<NearestPeerAlgorithm> MakeAlgorithm(const std::string& name,
                                                    const World& world) {
  ValidateAlgorithmName(name, world.type);
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
  if (name == "tapestry") {
    return std::make_unique<np::algos::TapestryNearest>(
        np::algos::TapestryConfig{});
  }
  if (name == "tiers") {
    return std::make_unique<np::algos::TiersNearest>(
        np::algos::TiersConfig{});
  }
  if (name == "tiers-rebuild") {
    // Incremental repair disabled: the engine rebuilds the hierarchy
    // per epoch and bills it — the pre-repair cost model, kept for
    // head-to-head comparisons.
    np::algos::TiersConfig config;
    config.incremental = false;
    return std::make_unique<np::algos::TiersNearest>(config);
  }
  if (name == "beaconing") {
    return std::make_unique<np::algos::BeaconingNearest>(
        np::algos::BeaconingConfig{});
  }
  if (name == "coord-vivaldi") {
    return std::make_unique<np::algos::CoordNearest>(
        np::algos::CoordConfig{});
  }
  if (name == "coord-pic") {
    np::algos::CoordConfig config;
    config.scheme = np::algos::CoordScheme::kPic;
    return std::make_unique<np::algos::CoordNearest>(config);
  }
  if (name == "coord-landmark") {
    np::algos::CoordConfig config;
    config.scheme = np::algos::CoordScheme::kLandmark;
    return std::make_unique<np::algos::CoordNearest>(config);
  }
  if (name.rfind("hybrid-", 0) == 0) {
    if (world.topology == nullptr) {
      throw np::util::Error(
          "algorithm " + name +
          " needs a topology world (the §5 mechanisms use routers/IPs)");
    }
    np::mech::HybridConfig config;
    const std::string mechanism = name.substr(7);
    if (mechanism == "ucl") {
      config.mechanism = np::mech::Mechanism::kUcl;
    } else if (mechanism == "prefix") {
      config.mechanism = np::mech::Mechanism::kPrefix;
    } else if (mechanism == "multicast") {
      config.mechanism = np::mech::Mechanism::kMulticast;
    } else if (mechanism == "registry") {
      config.mechanism = np::mech::Mechanism::kRegistry;
    } else {
      throw np::util::Error("unknown hybrid mechanism: " + mechanism);
    }
    return std::make_unique<np::mech::HybridNearest>(
        *world.topology, config,
        std::make_unique<np::meridian::MeridianOverlay>(
            np::meridian::MeridianConfig{}));
  }
  // Unreachable for names ValidateAlgorithmName accepts — hitting this
  // means the dispatch chain above lost an entry.
  throw np::util::Error("algorithm accepted by validation but not "
                        "constructible: " +
                        name + " (known: " + AlgorithmHint() + ")");
}

// --- Report output ----------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      // Control characters are illegal raw inside JSON strings (our
      // own parser rejects them); emit \u00XX.
      constexpr char kHex[] = "0123456789abcdef";
      out += "\\u00";
      out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]);
      out.push_back(kHex[static_cast<unsigned char>(c) & 0xF]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Scenario names come from the spec; keep the derived report filename
/// to a safe character set (no path separators or control bytes).
std::string SanitizeFileStem(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.';
    out.push_back(safe ? c : '_');
  }
  return out.empty() ? std::string("scenario") : out;
}

/// Serving-mode sidecar for one algorithm's report; inactive (and
/// absent from the JSON) in plain scenario mode, so fault-free
/// scenario reports stay byte-identical to pre-serving builds.
struct ServingResult {
  bool active = false;
  /// report.scenario duplicates the ScenarioReport in `reports`; only
  /// the serving-specific fields are serialized from here.
  ServingReport report;
  bool replay_checked = false;
  bool replay_identical = false;
};

void WriteReportJson(std::ostream& out, const std::string& scenario_name,
                     const World& world, const ChurnSchedule& schedule,
                     const std::vector<ScenarioReport>& reports,
                     const std::vector<ServingResult>& serving,
                     bool strip_wallclock) {
  out << "{\n";
  out << "  \"scenario\": \"" << JsonEscape(scenario_name) << "\",\n";
  out << "  \"world\": \"" << JsonEscape(world.type) << "\",\n";
  out << "  \"schedule_events\": " << schedule.size() << ",\n";
  out << "  \"duration_s\": " << schedule.duration_s() << ",\n";
  const auto* sparse = world.factory ? world.factory->sparse() : nullptr;
  if (sparse != nullptr && !strip_wallclock) {
    // Row-cache observability (whole run, all algorithms): the data
    // that tells an operator whether row_cache_capacity is sized right
    // for this workload. The counters depend on how query threads
    // interleave on the shared LRU, so they sit in the run-dependent
    // `wall` block that --strip-wallclock drops; latencies themselves
    // are cache-state independent.
    const auto stats = sparse->cache_stats();
    const std::uint64_t lookups = stats.hits + stats.misses;
    out << "  \"wall\": {\"sparse_cache\": {\"capacity\": "
        << sparse->config().row_cache_capacity
        << ", \"cached_rows\": " << sparse->cached_rows()
        << ", \"hits\": " << stats.hits << ", \"misses\": " << stats.misses
        << ", \"evictions\": " << stats.evictions << ", \"hit_rate\": "
        << (lookups == 0
                ? 0.0
                : static_cast<double>(stats.hits) /
                      static_cast<double>(lookups))
        << "}},\n";
  }
  out << "  \"algorithms\": [\n";
  for (std::size_t a = 0; a < reports.size(); ++a) {
    const ScenarioReport& report = reports[a];
    out << "    {\"name\": \"" << JsonEscape(report.algorithm) << "\",\n";
    out << "     \"build_messages\": " << report.build_messages << ",\n";
    out << "     \"initial_members\": " << report.initial_members << ",\n";
    out << "     \"final_members\": " << report.final_members << ",\n";
    out << "     \"messages_per_query\": " << report.messages_per_query
        << ",\n";
    out << "     \"maintenance_per_event\": " << report.maintenance_per_event
        << ",\n";
    out << "     \"totals\": {\"query_probes\": "
        << report.totals.query_probes
        << ", \"queries\": " << report.totals.queries
        << ", \"maintenance_probes\": " << report.totals.maintenance_probes
        << ", \"churn_events\": " << report.totals.churn_events
        << ", \"build_probes\": " << report.totals.build_probes << "},\n";
    if (serving[a].active) {
      const ServingReport& sv = serving[a].report;
      out << "     \"serving\": {\"reader_threads\": " << sv.reader_threads
          << ", \"snapshots_published\": " << sv.snapshots_published
          << ",\n";
      out << "      \"replay\": {\"checked\": "
          << (serving[a].replay_checked ? "true" : "false")
          << ", \"identical\": "
          << (serving[a].replay_identical ? "true" : "false") << "},\n";
      out << "      \"staleness\": [";
      for (std::size_t s = 0; s < sv.staleness.size(); ++s) {
        const np::core::StalenessReport& st = sv.staleness[s];
        out << (s == 0 ? "" : ", ") << "{\"epoch\": " << st.epoch
            << ", \"p_exact_live\": " << st.p_exact_live
            << ", \"p_found_departed\": " << st.p_found_departed << "}";
      }
      out << "]";
      if (!strip_wallclock) {
        // Wall-clock block: varies run to run, so the CI equivalence
        // gates compare reports written with --strip-wallclock.
        // max_retired_alive lives here too — the pin rendezvous bounds
        // it, but the observed value depends on thread scheduling.
        out << ",\n      \"wall\": {\"wall_ms\": " << sv.wall_ms
            << ", \"max_retired_alive\": " << sv.max_retired_alive
            << ", \"qps\": " << sv.qps
            << ", \"query_latency_p50_us\": " << sv.query_latency_p50_us
            << ", \"query_latency_p99_us\": " << sv.query_latency_p99_us
            << "}";
      }
      out << "},\n";
    }
    // Fault/load blocks are gated on the run actually exercising them:
    // fault-free scenarios keep byte-identical reports.
    if (report.fault_mode) {
      out << "     \"fault\": {\"failed_probes\": "
          << report.totals.failed_probes
          << ", \"retries\": " << report.totals.retries
          << ", \"failed_queries\": " << report.failed_queries << "},\n";
    }
    if (report.suspicion_mode) {
      out << "     \"suspicion\": {\"suspicion_skips\": "
          << report.totals.suspicion_skips
          << ", \"probation_probes\": " << report.totals.probation_probes
          << "},\n";
    }
    if (report.load_tracking) {
      out << "     \"load\": {\"total\": " << report.load.total
          << ", \"max\": " << report.load.max
          << ", \"max_node\": " << report.load.max_node
          << ", \"median\": " << report.load.median
          << ", \"gini\": " << report.load.gini << "},\n";
    }
    out << "     \"epochs\": [\n";
    for (std::size_t e = 0; e < report.epochs.size(); ++e) {
      const np::core::EpochReport& er = report.epochs[e];
      out << "       {\"epoch\": " << er.epoch << ", \"time_s\": " << er.time_s
          << ", \"members\": " << er.live_members
          << ", \"joins\": " << er.joins << ", \"leaves\": " << er.leaves
          << ", \"skipped\": " << er.skipped_events
          << ", \"rebuilt\": " << (er.rebuilt ? "true" : "false")
          << ", \"p_exact_closest\": " << er.p_exact_closest
          << ", \"p_correct_cluster\": " << er.p_correct_cluster
          << ", \"p_same_net\": " << er.p_same_net
          << ", \"mean_found_latency_ms\": " << er.mean_found_latency_ms
          << ", \"mean_hops\": " << er.mean_hops
          << ", \"excess_latency_p50_ms\": " << er.excess_latency_p50_ms
          << ", \"excess_latency_p95_ms\": " << er.excess_latency_p95_ms
          << ", \"excess_latency_p99_ms\": " << er.excess_latency_p99_ms
          << ", \"messages_per_query\": " << er.messages_per_query
          << ", \"maintenance_messages\": " << er.maintenance_messages
          << ", \"maintenance_per_event\": " << er.maintenance_per_event;
      if (report.fault_mode) {
        out << ", \"crashes\": " << er.crashes
            << ", \"p_query_failed\": " << er.p_query_failed
            << ", \"failed_probes\": " << er.failed_probes
            << ", \"retries\": " << er.retries;
      }
      if (report.partition_mode) {
        out << ", \"p_exact_reachable\": " << er.p_exact_reachable;
        if (!er.components.empty()) {
          out << ", \"components\": [";
          for (std::size_t c = 0; c < er.components.size(); ++c) {
            const auto& comp = er.components[c];
            out << (c == 0 ? "" : ", ") << "{\"component\": "
                << comp.component << ", \"members\": " << comp.members
                << ", \"queries\": " << comp.queries
                << ", \"failed_queries\": " << comp.failed_queries;
            if (report.load_tracking) {
              out << ", \"load_gini\": " << comp.load_gini;
            }
            out << "}";
          }
          out << "]";
        }
      }
      if (report.suspicion_mode) {
        out << ", \"quarantined\": " << er.quarantined_peers
            << ", \"suspicion_skips\": " << er.suspicion_skips
            << ", \"probation_probes\": " << er.probation_probes;
      }
      if (report.load_tracking) {
        out << ", \"load_max\": " << er.load_max
            << ", \"load_median\": " << er.load_median
            << ", \"load_gini\": " << er.load_gini;
      }
      out << "}" << (e + 1 < report.epochs.size() ? "," : "") << "\n";
    }
    out << "     ]}" << (a + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

int Run(int argc, char** argv) {
  std::string spec_path;
  std::string out_path;
  int threads_override = -1;
  int readers_override = -1;
  std::string mode_override;
  bool strip_wallclock = false;
  bool validate_only = false;
  constexpr const char* kUsage =
      "usage: np_run <scenario.json> [--out FILE] [--threads N] "
      "[--readers N] [--mode scenario|serving] [--strip-wallclock] "
      "[--validate]";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads_override = std::stoi(argv[++i]);
    } else if (arg == "--readers" && i + 1 < argc) {
      readers_override = std::stoi(argv[++i]);
    } else if (arg == "--mode" && i + 1 < argc) {
      mode_override = argv[++i];
      if (mode_override != "scenario" && mode_override != "serving") {
        std::cerr << kUsage << std::endl;
        return 2;
      }
    } else if (arg == "--strip-wallclock") {
      strip_wallclock = true;
    } else if (arg == "--validate") {
      validate_only = true;
    } else if (!arg.empty() && arg[0] != '-' && spec_path.empty()) {
      spec_path = arg;
    } else {
      std::cerr << kUsage << std::endl;
      return 2;
    }
  }
  if (spec_path.empty()) {
    std::cerr << kUsage << std::endl;
    return 2;
  }

  const JsonValue spec = JsonValue::Parse(ReadFile(spec_path));
  ValidateSpec(spec);
  const std::string name = spec.GetString("name", "scenario");

  if (validate_only) {
    // Schema passed; constructing the schedule additionally checks the
    // churn parameter constraints (rates, shapes, diurnal bounds)
    // without paying for world generation.
    const ChurnSchedule schedule = BuildSchedule(spec.at("churn"));
    std::cout << "valid: " << spec_path << " (" << name << ", "
              << schedule.size() << " churn events over "
              << schedule.duration_s() << " s)\n";
    return 0;
  }

  const World world = BuildWorld(spec.at("world"));
  const ChurnSchedule schedule = BuildSchedule(spec.at("churn"));

  const JsonValue& engine = spec.at("scenario");
  ScenarioConfig config;
  config.initial_overlay = static_cast<NodeId>(
      engine.GetInt("initial_overlay", config.initial_overlay));
  config.epochs = static_cast<int>(engine.GetInt("epochs", config.epochs));
  config.queries_per_epoch = static_cast<int>(
      engine.GetInt("queries_per_epoch", config.queries_per_epoch));
  config.num_threads =
      static_cast<int>(engine.GetInt("num_threads", config.num_threads));
  config.tie_epsilon_ms =
      engine.GetDouble("tie_epsilon_ms", config.tie_epsilon_ms);
  config.measurement_noise_frac = engine.GetDouble(
      "measurement_noise_frac", config.measurement_noise_frac);
  config.measurement_noise_floor_ms = engine.GetDouble(
      "measurement_noise_floor_ms", config.measurement_noise_floor_ms);
  if (const JsonValue* fault = engine.Find("fault")) {
    config.fault.loss_rate =
        fault->GetDouble("loss_rate", config.fault.loss_rate);
    config.fault.max_attempts = static_cast<int>(
        fault->GetInt("retry", config.fault.max_attempts));
    config.fault.track_load =
        fault->GetBool("track_load", config.fault.track_load);
    if (const JsonValue* partitions = fault->Find("partitions")) {
      for (const JsonValue& entry : partitions->items()) {
        np::core::FaultConfig::Partition partition;
        partition.start_epoch =
            static_cast<int>(entry.GetInt("start_epoch", 0));
        partition.end_epoch = static_cast<int>(entry.GetInt("end_epoch", 0));
        for (const JsonValue& group : entry.at("groups").items()) {
          std::vector<int> clusters;
          for (const JsonValue& cluster : group.items()) {
            clusters.push_back(static_cast<int>(cluster.AsInt()));
          }
          partition.groups.push_back(std::move(clusters));
        }
        config.fault.partitions.push_back(std::move(partition));
      }
    }
    if (const JsonValue* grey = fault->Find("grey_nodes")) {
      config.fault.grey_node_frac = grey->GetDouble("frac", 0.0);
      config.fault.grey_loss_rate = grey->GetDouble("loss_rate", 0.0);
    }
    config.fault.asymmetric_loss =
        fault->GetDouble("asymmetric_loss", config.fault.asymmetric_loss);
    if (const JsonValue* suspicion = fault->Find("suspicion")) {
      config.fault.suspicion.strikes =
          static_cast<int>(suspicion->GetInt("strikes", 3));
      config.fault.suspicion.probation_epochs = static_cast<int>(
          suspicion->GetInt("probation_epochs",
                            config.fault.suspicion.probation_epochs));
      config.fault.suspicion.probation_backoff = suspicion->GetDouble(
          "probation_backoff", config.fault.suspicion.probation_backoff);
    }
  }
  config.query_zipf_s =
      engine.GetDouble("query_zipf_s", config.query_zipf_s);
  if (const JsonValue* blackouts = spec.at("churn").Find("blackouts")) {
    for (const JsonValue& entry : blackouts->items()) {
      ScenarioConfig::Blackout blackout;
      blackout.time_s = entry.GetDouble("t", 0.0);
      blackout.cluster = static_cast<int>(entry.GetInt("cluster", 0));
      config.blackouts.push_back(blackout);
    }
  }
  config.seed = engine.GetUint64("seed", config.seed);
  if (threads_override >= 0) {
    config.num_threads = threads_override;
  }

  // --mode lets CI drive one spec both ways (t1/t2/t8 scenario
  // byte-diffs AND serving replay) without duplicating the file.
  const std::string engine_mode =
      mode_override.empty() ? engine.GetString("mode", "scenario")
                            : mode_override;
  const bool serving_mode = engine_mode == "serving";
  ServingConfig serving_config;
  serving_config.scenario = config;
  serving_config.reader_threads =
      static_cast<int>(engine.GetInt("reader_threads", 4));
  if (readers_override >= 0) {
    serving_config.reader_threads = readers_override;
  }
  // Replay check defaults on: the deterministic loop stays the
  // correctness oracle unless the spec explicitly opts out.
  const bool check_replay = engine.GetBool("check_replay", true);

  std::cout << "scenario: " << name << " (world " << world.type << ", "
            << schedule.size() << " churn events over "
            << schedule.duration_s() << " s, " << config.epochs
            << " epochs";
  if (serving_mode) {
    std::cout << ", serving with " << serving_config.reader_threads
              << " readers";
  }
  std::cout << ")\n";

  std::vector<ScenarioReport> reports;
  std::vector<ServingResult> serving;
  for (const JsonValue& entry : spec.at("algorithms").items()) {
    const std::string algo_name = entry.AsString();
    const auto algo = MakeAlgorithm(algo_name, world);
    ServingResult sr;
    if (serving_mode) {
      sr.active = true;
      sr.report = RunServing(world.space(), world.layout(), *algo, schedule,
                             serving_config, world.population);
      if (check_replay) {
        // The oracle: serial replay on a fresh instance must agree
        // bit-for-bit with the concurrent run's deterministic block.
        const auto replay_algo = MakeAlgorithm(algo_name, world);
        const ScenarioReport replay =
            RunScenario(world.space(), world.layout(), *replay_algo,
                        schedule, config, world.population);
        sr.replay_checked = true;
        sr.replay_identical =
            np::core::ScenarioReportsIdentical(sr.report.scenario, replay);
        if (!sr.replay_identical) {
          throw np::util::Error(
              "serving/replay divergence for " + algo_name +
              ": concurrent snapshot run is not bit-identical to serial "
              "replay");
        }
      }
      reports.push_back(sr.report.scenario);
    } else {
      reports.push_back(RunScenario(world.space(), world.layout(), *algo,
                                    schedule, config, world.population));
    }
    serving.push_back(std::move(sr));

    const ScenarioReport& report = reports.back();
    // Fault/load columns only appear when the run exercised them, so
    // fault-free scenarios render byte-identical to pre-fault builds.
    std::vector<std::string> headers = {
        "epoch", "t_s", "members", "joins", "leaves", "p_exact",
        "p95_excess_ms", "msgs/query", "maint_msgs", "maint/event"};
    if (report.fault_mode) {
      headers.insert(headers.end(),
                     {"crashes", "p_qfail", "failed_probes", "retries"});
    }
    if (report.partition_mode) {
      headers.push_back("p_reach");
    }
    if (report.suspicion_mode) {
      headers.push_back("quar");
    }
    if (report.load_tracking) {
      headers.insert(headers.end(), {"load_max", "load_gini"});
    }
    np::util::Table table(headers);
    for (const np::core::EpochReport& er : report.epochs) {
      std::vector<std::string> row = {
          std::to_string(er.epoch),
          np::util::FormatDouble(er.time_s, 1),
          std::to_string(er.live_members),
          std::to_string(er.joins), std::to_string(er.leaves),
          np::util::FormatDouble(er.p_exact_closest, 3),
          np::util::FormatDouble(er.excess_latency_p95_ms, 2),
          np::util::FormatDouble(er.messages_per_query, 1),
          std::to_string(er.maintenance_messages),
          np::util::FormatDouble(er.maintenance_per_event, 1)};
      if (report.fault_mode) {
        row.push_back(std::to_string(er.crashes));
        row.push_back(np::util::FormatDouble(er.p_query_failed, 3));
        row.push_back(std::to_string(er.failed_probes));
        row.push_back(std::to_string(er.retries));
      }
      if (report.partition_mode) {
        row.push_back(np::util::FormatDouble(er.p_exact_reachable, 3));
      }
      if (report.suspicion_mode) {
        row.push_back(std::to_string(er.quarantined_peers));
      }
      if (report.load_tracking) {
        row.push_back(std::to_string(er.load_max));
        row.push_back(np::util::FormatDouble(er.load_gini, 3));
      }
      table.AddRow(std::move(row));
    }
    std::cout << "algorithm: " << report.algorithm
              << "  (build_messages " << report.build_messages
              << ", overall msgs/query "
              << np::util::FormatDouble(report.messages_per_query, 1)
              << ", maint/event "
              << np::util::FormatDouble(report.maintenance_per_event, 1);
    if (report.fault_mode) {
      std::cout << ", failed_queries " << report.failed_queries;
    }
    if (report.load_tracking) {
      std::cout << ", load_gini "
                << np::util::FormatDouble(report.load.gini, 3);
    }
    std::cout << ")\n";
    std::cout << table.Render();
    if (serving[serving.size() - 1].active) {
      const ServingReport& sv = serving[serving.size() - 1].report;
      const np::core::StalenessReport& last = sv.staleness.back();
      std::cout << "serving: readers " << sv.reader_threads << ", qps "
                << np::util::FormatDouble(sv.qps, 0) << ", p50 "
                << np::util::FormatDouble(sv.query_latency_p50_us, 1)
                << " us, p99 "
                << np::util::FormatDouble(sv.query_latency_p99_us, 1)
                << " us, retired_alive<=" << sv.max_retired_alive
                << ", p_exact_live[last] "
                << np::util::FormatDouble(last.p_exact_live, 3)
                << ", replay "
                << (serving[serving.size() - 1].replay_checked
                        ? (serving[serving.size() - 1].replay_identical
                               ? "identical"
                               : "DIVERGED")
                        : "unchecked")
                << "\n";
    }
  }

  if (const auto* sparse =
          world.factory ? world.factory->sparse() : nullptr) {
    const auto stats = sparse->cache_stats();
    const std::uint64_t lookups = stats.hits + stats.misses;
    std::cout << "sparse row cache: capacity "
              << sparse->config().row_cache_capacity << ", hits "
              << stats.hits << ", misses " << stats.misses << ", evictions "
              << stats.evictions << ", hit rate "
              << np::util::FormatDouble(
                     lookups == 0 ? 0.0
                                  : static_cast<double>(stats.hits) /
                                        static_cast<double>(lookups),
                     3)
              << "\n";
  }

  const std::string report_path =
      out_path.empty() ? "NP_RUN_" + SanitizeFileStem(name) + ".json"
                       : out_path;
  std::ofstream out(report_path, std::ios::binary);
  if (!out) {
    throw np::util::Error("cannot write report: " + report_path);
  }
  WriteReportJson(out, name, world, schedule, reports, serving,
                  strip_wallclock);
  std::cout << "report: " << report_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  NP_REPORT_AFFECTING();
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "np_run: " << e.what() << std::endl;
    return 1;
  }
}
