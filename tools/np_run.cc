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
// Every run starts with ParseSpec, which reads each key of the spec
// exactly once into plain structs and rejects any key it did not read,
// so the parser is the schema. It then runs the world generator's and
// the engines' own range checks on the values it read. `--validate`
// stops after that pass (plus a cheap churn-schedule construction);
// tests/tools/spec_docs_test.py checks docs/SCENARIOS.md's key tables
// against it.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algos/registry.h"
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
using np::util::Error;
using np::util::JsonEscape;
using np::util::JsonValue;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open scenario spec: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- Spec reader ------------------------------------------------------------

/// `value` as a T, or an error naming `what` when it is not an integer
/// T can hold (a silent narrowing would run a different experiment).
template <typename T>
T CheckedInt(const JsonValue& value, const std::string& what) {
  // Bound the double first: converting one outside int64 is undefined.
  const double d = value.AsDouble();
  if (std::fabs(d) < 0x1p63 && std::in_range<T>(value.AsInt())) {
    return static_cast<T>(value.AsInt());
  }
  std::ostringstream text;
  text << what << " is out of range: " << std::setprecision(17) << d
       << " (allowed " << std::numeric_limits<T>::min() << ".."
       << std::numeric_limits<T>::max() << ")";
  throw Error(text.str());
}

/// Reads one JSON object of the spec. Every getter records the key it
/// is asked for, and Done() rejects any key of the object that no
/// getter asked for, listing the ones that were. A key is therefore
/// allowed exactly where it is read, and the parse pass is the schema.
class SpecReader {
 public:
  SpecReader(const JsonValue& object, std::string section)
      : object_(object), section_(std::move(section)) {
    if (!object_.IsObject()) {
      throw Error(section_ + " must be a JSON object");
    }
  }

  /// Names the variant whose keys follow: "world" -> "world (sparse)".
  void Qualify(const std::string& variant) { section_ += " (" + variant + ")"; }

  template <typename T>
  T Int(const char* key, T fallback) {
    const JsonValue* value = Get(key);
    return value == nullptr ? fallback : CheckedInt<T>(*value, Where(key));
  }
  double Double(const char* key, double fallback) {
    const JsonValue* value = Get(key);
    return value == nullptr ? fallback : value->AsDouble();
  }
  bool Bool(const char* key, bool fallback) {
    const JsonValue* value = Get(key);
    return value == nullptr ? fallback : value->AsBool();
  }
  std::string String(const char* key, const std::string& fallback) {
    const JsonValue* value = Get(key);
    return value == nullptr ? fallback : value->AsString();
  }
  /// Nested values: nullptr when absent, unless `required`.
  const JsonValue* Object(const char* key, bool required = false) {
    return Nested(key, required, JsonValue::Type::kObject, "an object");
  }
  const JsonValue* Array(const char* key, bool required = false) {
    return Nested(key, required, JsonValue::Type::kArray, "an array");
  }

  /// How many of the keys asked for so far the object carries.
  std::size_t found() const { return found_; }

  void Done() const {
    for (const auto& [key, value] : object_.entries()) {
      if (std::find(asked_.begin(), asked_.end(), key) == asked_.end()) {
        std::string allowed;
        for (const std::string& asked : asked_) {
          allowed += allowed.empty() ? "" : ", ";
          allowed += asked;
        }
        throw Error("unknown key \"" + key + "\" in " + section_ +
                    " (allowed: " + allowed + ")");
      }
    }
  }

 private:
  const JsonValue* Get(const char* key) {
    asked_.emplace_back(key);
    const JsonValue* value = object_.Find(key);
    found_ += value != nullptr ? 1 : 0;
    return value;
  }
  const JsonValue* Nested(const char* key, bool required,
                          JsonValue::Type type, const char* type_name) {
    const JsonValue* value = Get(key);
    if (value == nullptr && required) {
      throw Error("missing " + Where(key));
    }
    if (value != nullptr && value->type() != type) {
      throw Error(Where(key) + " must be " + type_name);
    }
    return value;
  }
  std::string Where(const char* key) const {
    return "\"" + std::string(key) + "\" in " + section_;
  }

  const JsonValue& object_;
  std::string section_;
  std::vector<std::string> asked_;
  std::size_t found_ = 0;
};

/// A spec string that selects one of a fixed set of values.
template <typename T>
struct Named {
  const char* name;
  T value;
};

template <typename T, std::size_t N>
std::string Names(const Named<T> (&table)[N], const char* separator) {
  std::string names;
  for (const Named<T>& entry : table) {
    names += names.empty() ? "" : separator;
    names += entry.name;
  }
  return names;
}

template <typename T, std::size_t N>
T Lookup(const Named<T> (&table)[N], const std::string& name,
         const std::string& what) {
  for (const Named<T>& entry : table) {
    if (name == entry.name) {
      return entry.value;
    }
  }
  throw Error("unknown " + what + ": " + name + " (expected " +
              Names(table, " | ") + ")");
}

constexpr Named<bool> kChurnModes[] = {{"poisson", false}, {"trace", true}};
constexpr Named<bool> kEngineModes[] = {
    {"scenario", false},
    {"serving", true},
};
constexpr Named<ChurnEventType> kTraceOps[] = {
    {"join", ChurnEventType::kJoin},
    {"leave", ChurnEventType::kLeave},
    {"crash", ChurnEventType::kCrash},
};
constexpr Named<np::core::SessionModel> kSessionModels[] = {
    {"exponential", np::core::SessionModel::kExponential},
    {"lognormal", np::core::SessionModel::kLogNormal},
    {"pareto", np::core::SessionModel::kPareto},
};
constexpr Named<np::mech::Mechanism> kHybridMechanisms[] = {
    {"ucl", np::mech::Mechanism::kUcl},
    {"prefix", np::mech::Mechanism::kPrefix},
    {"multicast", np::mech::Mechanism::kMulticast},
    {"registry", np::mech::Mechanism::kRegistry},
};

// --- Parsed spec ------------------------------------------------------------

/// The world section: `type` selects which one of the configs is live.
struct WorldSpec {
  std::string type;
  std::uint64_t seed = 7;
  np::matrix::ClusteredConfig clustered;
  np::matrix::EuclideanConfig euclidean;
  NodeId num_nodes = 1000;  // euclidean only; the others carry their own
  np::matrix::EmbeddedSpaceConfig embedded;
  np::matrix::SparseTopologyConfig sparse;
  np::net::TopologyConfig topology = np::net::SmallTestConfig();
};

struct ChurnSpec {
  bool trace = false;
  ChurnScheduleConfig poisson;
  std::vector<ChurnEvent> events;
};

struct AlgorithmSpec {
  std::string name;
  /// nullptr for the world-dependent hybrid-* algorithms.
  const np::algos::RegisteredAlgorithm* registered = nullptr;
  np::mech::Mechanism mechanism = np::mech::Mechanism::kUcl;
};

struct Spec {
  std::string name;
  WorldSpec world;
  ChurnSpec churn;
  /// Includes churn.blackouts, which the engine applies.
  ScenarioConfig scenario;
  bool serving = false;
  int reader_threads = 4;
  bool check_replay = true;
  std::vector<AlgorithmSpec> algorithms;
};

// --- Parsing ----------------------------------------------------------------

WorldSpec ParseWorld(const JsonValue& json) {
  SpecReader in(json, "world");
  WorldSpec world;
  world.type = in.String("type", "clustered");
  in.Qualify(world.type);
  world.seed = in.Int("seed", world.seed);
  if (world.type == "clustered") {
    np::matrix::ClusteredConfig& config = world.clustered;
    config.num_clusters = in.Int("num_clusters", config.num_clusters);
    config.nets_per_cluster =
        in.Int("nets_per_cluster", config.nets_per_cluster);
    config.peers_per_net = in.Int("peers_per_net", config.peers_per_net);
    config.delta = in.Double("delta", config.delta);
  } else if (world.type == "euclidean") {
    np::matrix::EuclideanConfig& config = world.euclidean;
    world.num_nodes = in.Int("num_nodes", world.num_nodes);
    config.dimensions = in.Int("dimensions", config.dimensions);
    config.side_ms = in.Double("side_ms", config.side_ms);
  } else if (world.type == "embedded") {
    // Implicit backend: O(n * d) memory, latencies recomputed per
    // probe — the world type the 10^3..10^5 scale sweep runs on.
    np::matrix::EmbeddedSpaceConfig& config = world.embedded;
    config.num_nodes = in.Int("num_nodes", config.num_nodes);
    config.dimensions = in.Int("dimensions", config.dimensions);
    config.side_ms = in.Double("side_ms", config.side_ms);
    config.distortion = in.Double("distortion", config.distortion);
    config.seed = world.seed;
  } else if (world.type == "sparse") {
    // Implicit shortest-path backend: O(n * degree) memory plus an LRU
    // row cache whose hit/miss/eviction counters land in the report.
    np::matrix::SparseTopologyConfig& config = world.sparse;
    config.num_nodes = in.Int("num_nodes", config.num_nodes);
    config.extra_edges_per_node =
        in.Int("extra_edges_per_node", config.extra_edges_per_node);
    config.min_edge_ms = in.Double("min_edge_ms", config.min_edge_ms);
    config.max_edge_ms = in.Double("max_edge_ms", config.max_edge_ms);
    config.row_cache_capacity =
        in.Int("row_cache_capacity", config.row_cache_capacity);
    config.seed = world.seed;
  } else if (world.type == "topology") {
    np::net::TopologyConfig& config = world.topology;
    config.num_cities = in.Int("num_cities", config.num_cities);
    config.num_ases = in.Int("num_ases", config.num_ases);
    config.azureus_hosts = in.Int("azureus_hosts", 2000);
    config.dns_recursive_hosts = 0;
    // Overlay participants cooperate: they answer probes.
    config.azureus_tcp_respond_prob = 1.0;
    config.azureus_trace_respond_prob = 1.0;
  } else {
    throw Error(
        "unknown world type: " + world.type +
        " (expected clustered | euclidean | embedded | sparse | topology)");
  }
  in.Done();
  // Each generator's own range check, run here so that --validate
  // rejects every value the run would, before any world is generated
  // (and after Done(), so a misspelt key is reported first).
  if (world.type == "clustered") {
    np::matrix::ValidateClusteredConfig(world.clustered);
  } else if (world.type == "euclidean") {
    np::matrix::ValidateEuclideanConfig(world.num_nodes, world.euclidean);
  } else if (world.type == "embedded") {
    np::matrix::ValidateEmbeddedConfig(world.embedded);
  } else if (world.type == "sparse") {
    np::matrix::ValidateSparseConfig(world.sparse);
  } else {
    np::net::ValidateTopologyConfig(world.topology);
  }
  return world;
}

ChurnSpec ParseChurn(const JsonValue& json, bool clustered,
                     std::vector<ScenarioConfig::Blackout>& blackouts) {
  SpecReader in(json, "churn");
  ChurnSpec churn;
  const std::string mode = in.String("mode", "poisson");
  churn.trace = Lookup(kChurnModes, mode, "churn mode");
  in.Qualify(mode);
  if (const JsonValue* list = in.Array("blackouts")) {
    if (!clustered) {
      throw Error(
          "churn.blackouts needs a clustered world (victims are a cluster)");
    }
    for (const JsonValue& entry : list->items()) {
      SpecReader item(entry, "churn.blackouts entry");
      ScenarioConfig::Blackout& blackout = blackouts.emplace_back();
      blackout.time_s = item.Double("t", blackout.time_s);
      blackout.cluster = item.Int("cluster", blackout.cluster);
      item.Done();
    }
  }
  if (churn.trace) {
    for (const JsonValue& entry : in.Array("trace", true)->items()) {
      SpecReader item(entry, "churn.trace entry");
      ChurnEvent& event = churn.events.emplace_back();
      event.time_s = item.Double("t", 0.0);
      event.type = Lookup(kTraceOps, item.String("op", ""), "trace op");
      item.Done();
    }
  } else {
    ChurnScheduleConfig& config = churn.poisson;
    config.duration_s = in.Double("duration_s", config.duration_s);
    config.events_per_s = in.Double("events_per_s", config.events_per_s);
    config.join_fraction = in.Double("join_fraction", config.join_fraction);
    config.mean_session_s = in.Double("mean_session_s", config.mean_session_s);
    const std::string model = in.String("session_model", "exponential");
    config.session_model = Lookup(kSessionModels, model, "session_model");
    config.lognormal_sigma =
        in.Double("lognormal_sigma", config.lognormal_sigma);
    config.pareto_alpha = in.Double("pareto_alpha", config.pareto_alpha);
    config.crash_fraction = in.Double("crash_frac", config.crash_fraction);
    if (const JsonValue* object = in.Object("diurnal")) {
      SpecReader diurnal(*object, "churn.diurnal");
      np::core::DiurnalConfig& wave = config.diurnal;
      wave.day_s = diurnal.Double("day_s", wave.day_s);
      wave.amplitude = diurnal.Double("amplitude", wave.amplitude);
      wave.peak_frac = diurnal.Double("peak_frac", wave.peak_frac);
      diurnal.Done();
    }
    config.seed = in.Int("seed", config.seed);
  }
  in.Done();
  return churn;
}

np::core::FaultConfig ParseFault(const JsonValue& json, bool clustered) {
  SpecReader in(json, "scenario.fault");
  np::core::FaultConfig fault;
  fault.loss_rate = in.Double("loss_rate", fault.loss_rate);
  fault.max_attempts = in.Int("retry", fault.max_attempts);
  fault.track_load = in.Bool("track_load", fault.track_load);
  if (const JsonValue* list = in.Array("partitions")) {
    if (!clustered) {
      throw Error(
          "fault.partitions splits cluster groups and needs a clustered "
          "world");
    }
    for (const JsonValue& entry : list->items()) {
      SpecReader item(entry, "fault.partitions entry");
      np::core::FaultConfig::Partition& partition =
          fault.partitions.emplace_back();
      partition.start_epoch = item.Int("start_epoch", 0);
      partition.end_epoch = item.Int("end_epoch", 0);
      for (const JsonValue& group : item.Array("groups", true)->items()) {
        std::vector<int>& clusters = partition.groups.emplace_back();
        for (const JsonValue& cluster : group.items()) {
          clusters.push_back(CheckedInt<int>(cluster, "a partition cluster"));
        }
      }
      item.Done();
      if (partition.groups.size() < 2) {
        throw Error("fault.partitions entry needs at least two groups");
      }
    }
  }
  if (const JsonValue* object = in.Object("grey_nodes")) {
    SpecReader grey(*object, "fault.grey_nodes");
    fault.grey_node_frac = grey.Double("frac", 0.0);
    fault.grey_loss_rate = grey.Double("loss_rate", 0.0);
    grey.Done();
  }
  fault.asymmetric_loss = in.Double("asymmetric_loss", fault.asymmetric_loss);
  if (const JsonValue* object = in.Object("suspicion")) {
    SpecReader suspicion(*object, "fault.suspicion");
    np::core::SuspicionConfig& config = fault.suspicion;
    config.strikes = suspicion.Int("strikes", 3);
    config.probation_epochs =
        suspicion.Int("probation_epochs", config.probation_epochs);
    config.probation_backoff =
        suspicion.Double("probation_backoff", config.probation_backoff);
    suspicion.Done();
  }
  in.Done();
  return fault;
}

/// The scenario section: engine parameters plus the serving fields.
void ParseEngine(const JsonValue& json, bool clustered, Spec& spec) {
  SpecReader in(json, "scenario");
  ScenarioConfig& config = spec.scenario;
  config.initial_overlay = in.Int("initial_overlay", config.initial_overlay);
  config.epochs = in.Int("epochs", config.epochs);
  config.queries_per_epoch =
      in.Int("queries_per_epoch", config.queries_per_epoch);
  config.num_threads = in.Int("num_threads", config.num_threads);
  if (const JsonValue* fault = in.Object("fault")) {
    config.fault = ParseFault(*fault, clustered);
  }
  config.query_zipf_s = in.Double("query_zipf_s", config.query_zipf_s);
  config.seed = in.Int("seed", config.seed);
  spec.serving = Lookup(kEngineModes, in.String("mode", "scenario"),
                        "scenario.mode");
  const std::size_t found = in.found();
  spec.reader_threads = in.Int("reader_threads", spec.reader_threads);
  // Replay check defaults on: the deterministic loop stays the
  // correctness oracle unless the spec explicitly opts out.
  spec.check_replay = in.Bool("check_replay", spec.check_replay);
  if (!spec.serving && in.found() != found) {
    throw Error("scenario.reader_threads / scenario.check_replay require "
                "\"mode\": \"serving\"");
  }
  in.Done();
}

AlgorithmSpec ParseAlgorithm(const std::string& name, bool topology) {
  AlgorithmSpec algo{name, np::algos::FindAlgorithm(name)};
  if (algo.registered != nullptr) {
    return algo;
  }
  if (name.rfind("hybrid-", 0) != 0) {
    throw Error("unknown algorithm: " + name + " (expected " +
                np::algos::AlgorithmNames() + " | hybrid-{" +
                Names(kHybridMechanisms, ",") + "})");
  }
  algo.mechanism =
      Lookup(kHybridMechanisms, name.substr(7), "hybrid mechanism");
  if (!topology) {
    throw Error("algorithm " + name +
                " needs a topology world (the §5 mechanisms use routers/IPs)");
  }
  return algo;
}

/// Overlay-eligible nodes of the world the spec describes: every node,
/// or a topology world's Azureus peers. 0 (unknown) for a topology
/// world without Azureus peers, whose population is every host.
std::size_t Population(const WorldSpec& world) {
  if (world.type == "clustered") {
    const np::matrix::ClusteredConfig& c = world.clustered;
    return static_cast<std::size_t>(c.num_clusters) *
           static_cast<std::size_t>(c.nets_per_cluster) *
           static_cast<std::size_t>(c.peers_per_net);
  }
  if (world.type == "euclidean") {
    return static_cast<std::size_t>(world.num_nodes);
  }
  if (world.type == "embedded") {
    return static_cast<std::size_t>(world.embedded.num_nodes);
  }
  if (world.type == "sparse") {
    return static_cast<std::size_t>(world.sparse.num_nodes);
  }
  return static_cast<std::size_t>(std::max(world.topology.azureus_hosts, 0));
}

/// Reads the whole spec once and runs every cross-section check; the
/// build steps below take the result and never touch JSON. A
/// `threads_override` of 0 or more (--threads) replaces
/// scenario.num_threads before the checks, so --validate and the run
/// judge the same value.
Spec ParseSpec(const JsonValue& json, int threads_override) {
  SpecReader in(json, "the scenario spec");
  Spec spec;
  spec.name = in.String("name", "scenario");
  in.String("description", "");  // free-form, ignored by the runner
  const JsonValue& world = *in.Object("world", true);
  const JsonValue& churn = *in.Object("churn", true);
  const JsonValue& engine = *in.Object("scenario", true);
  const JsonValue& algorithms = *in.Array("algorithms", true);
  in.Done();

  spec.world = ParseWorld(world);
  const bool clustered = spec.world.type == "clustered";
  spec.churn = ParseChurn(churn, clustered, spec.scenario.blackouts);
  ParseEngine(engine, clustered, spec);
  if (threads_override >= 0) {
    spec.scenario.num_threads = threads_override;
  }
  // The engines' own workload checks, over the world the spec states,
  // so that --validate rejects every scenario value the run would.
  np::core::ValidateScenarioConfig(
      spec.scenario, Population(spec.world),
      clustered ? spec.world.clustered.num_clusters : 0);
  for (const JsonValue& entry : algorithms.items()) {
    spec.algorithms.push_back(
        ParseAlgorithm(entry.AsString(), spec.world.type == "topology"));
  }
  return spec;
}

// --- Building ---------------------------------------------------------------

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

World BuildWorld(const WorldSpec& spec) {
  using np::core::SpaceFactory;
  World world;
  world.type = spec.type;
  if (spec.type == "topology") {
    np::util::Rng rng(spec.seed);
    world.topology = std::make_unique<np::net::Topology>(
        np::net::Topology::Generate(spec.topology, rng));
    world.topology_space =
        std::make_unique<np::mech::TopologySpace>(*world.topology);
    world.population =
        world.topology->HostsOfKind(np::net::HostKind::kAzureusPeer);
    return world;
  }
  if (spec.type == "clustered") {
    world.factory = std::make_unique<SpaceFactory>(
        SpaceFactory::MakeClustered(spec.clustered, spec.seed));
  } else if (spec.type == "euclidean") {
    world.factory = std::make_unique<SpaceFactory>(
        SpaceFactory::MakeEuclidean(spec.num_nodes, spec.euclidean, spec.seed));
  } else if (spec.type == "embedded") {
    world.factory = std::make_unique<SpaceFactory>(
        SpaceFactory::MakeEmbedded(spec.embedded));
  } else {
    world.factory = std::make_unique<SpaceFactory>(
        SpaceFactory::MakeSparse(spec.sparse));
  }
  return world;
}

ChurnSchedule BuildSchedule(const ChurnSpec& churn) {
  return churn.trace ? ChurnSchedule::FromTrace(churn.events)
                     : ChurnSchedule::Poisson(churn.poisson);
}

std::unique_ptr<NearestPeerAlgorithm> MakeAlgorithm(const AlgorithmSpec& algo,
                                                    const World& world) {
  if (algo.registered != nullptr) {
    return algo.registered->make();
  }
  return std::make_unique<np::mech::HybridNearest>(
      *world.topology, algo.mechanism,
      std::make_unique<np::meridian::MeridianOverlay>(
          np::meridian::MeridianConfig{}));
}

// --- Report output ----------------------------------------------------------

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

double HitRate(const np::matrix::SparseTopologySpace::CacheStats& stats) {
  const std::uint64_t lookups = stats.hits + stats.misses;
  if (lookups == 0) {
    return 0.0;
  }
  return static_cast<double>(stats.hits) / static_cast<double>(lookups);
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
    out << "  \"wall\": {\"sparse_cache\": {\"capacity\": "
        << sparse->config().row_cache_capacity
        << ", \"cached_rows\": " << sparse->cached_rows()
        << ", \"hits\": " << stats.hits << ", \"misses\": " << stats.misses
        << ", \"evictions\": " << stats.evictions << ", \"hit_rate\": "
        << HitRate(stats) << "}},\n";
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

/// `text` as a whole decimal int no smaller than `min`; nullopt for
/// anything else (trailing junk, overflow, too small).
std::optional<int> FlagInt(std::string_view text, int min) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < min) {
    return std::nullopt;
  }
  return value;
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
    } else if ((arg == "--threads" || arg == "--readers") && i + 1 < argc) {
      const bool threads = arg == "--threads";
      const std::optional<int> n = FlagInt(argv[++i], threads ? 0 : 1);
      if (!n) {
        std::cerr << kUsage << std::endl;
        return 2;
      }
      (threads ? threads_override : readers_override) = *n;
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

  const Spec spec =
      ParseSpec(JsonValue::Parse(ReadFile(spec_path)), threads_override);

  if (validate_only) {
    // Schema passed; constructing the schedule additionally checks the
    // churn parameter constraints (rates, shapes, diurnal bounds)
    // without paying for world generation.
    const ChurnSchedule schedule = BuildSchedule(spec.churn);
    std::cout << "valid: " << spec_path << " (" << spec.name << ", "
              << schedule.size() << " churn events over "
              << schedule.duration_s() << " s)\n";
    return 0;
  }

  const World world = BuildWorld(spec.world);
  const ChurnSchedule schedule = BuildSchedule(spec.churn);

  const ScenarioConfig& config = spec.scenario;
  // --mode lets CI drive one spec both ways (t1/t2/t8 scenario
  // byte-diffs AND serving replay) without duplicating the file.
  const bool serving_mode =
      mode_override.empty() ? spec.serving : mode_override == "serving";
  ServingConfig serving_config;
  serving_config.scenario = config;
  serving_config.reader_threads =
      readers_override >= 0 ? readers_override : spec.reader_threads;

  std::cout << "scenario: " << spec.name << " (world " << world.type << ", "
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
  for (const AlgorithmSpec& algo_spec : spec.algorithms) {
    const auto algo = MakeAlgorithm(algo_spec, world);
    ServingResult sr;
    if (serving_mode) {
      sr.active = true;
      sr.report = RunServing(world.space(), world.layout(), *algo, schedule,
                             serving_config, world.population);
      if (spec.check_replay) {
        // The oracle: serial replay on a fresh instance must agree
        // bit-for-bit with the concurrent run's deterministic block.
        const auto replay_algo = MakeAlgorithm(algo_spec, world);
        const ScenarioReport replay =
            RunScenario(world.space(), world.layout(), *replay_algo,
                        schedule, config, world.population);
        sr.replay_checked = true;
        sr.replay_identical =
            np::core::ScenarioReportsIdentical(sr.report.scenario, replay);
        if (!sr.replay_identical) {
          throw Error(
              "serving/replay divergence for " + algo_spec.name +
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
    const ServingResult& result = serving.back();
    if (result.active) {
      const ServingReport& sv = result.report;
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
                << (result.replay_checked
                        ? (result.replay_identical ? "identical" : "DIVERGED")
                        : "unchecked")
                << "\n";
    }
  }

  if (const auto* sparse =
          world.factory ? world.factory->sparse() : nullptr) {
    const auto stats = sparse->cache_stats();
    std::cout << "sparse row cache: capacity "
              << sparse->config().row_cache_capacity << ", hits "
              << stats.hits << ", misses " << stats.misses << ", evictions "
              << stats.evictions << ", hit rate "
              << np::util::FormatDouble(HitRate(stats), 3) << "\n";
  }

  const std::string report_path =
      out_path.empty() ? "NP_RUN_" + SanitizeFileStem(spec.name) + ".json"
                       : out_path;
  std::ofstream out(report_path, std::ios::binary);
  if (!out) {
    throw Error("cannot write report: " + report_path);
  }
  WriteReportJson(out, spec.name, world, schedule, reports, serving,
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
