// Serving-mode equivalence: the concurrent snapshot engine must
// reproduce the deterministic scenario engine bit for bit — for every
// structured scheme and the §5 hybrids, for every reader count, under
// lognormal session churn and under probe loss — plus the staleness
// metrics' deterministic invariants, the post-run algorithm state, and
// the serving-mode precondition checks.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "algos/beaconing.h"
#include "algos/karger_ruhl.h"
#include "algos/tapestry.h"
#include "algos/tiers.h"
#include "core/churn.h"
#include "core/scenario.h"
#include "core/serving.h"
#include "matrix/generators.h"
#include "mech/hybrid.h"
#include "mech/topology_space.h"
#include "meridian/meridian.h"
#include "net/tools.h"
#include "util/error.h"

namespace np::core {
namespace {

matrix::ClusteredWorld SmallClusteredWorld(std::uint64_t seed) {
  matrix::ClusteredConfig config;
  config.num_clusters = 4;
  config.nets_per_cluster = 15;
  config.peers_per_net = 2;
  config.delta = 0.6;
  util::Rng rng(seed);
  return matrix::GenerateClustered(config, rng);
}

std::unique_ptr<NearestPeerAlgorithm> MakeAlgo(const std::string& name) {
  if (name == "meridian") {
    meridian::MeridianConfig config;
    config.ring_size = 4;
    config.gossip_bootstrap_contacts = 3;
    return std::make_unique<meridian::MeridianOverlay>(config);
  }
  if (name == "karger-ruhl") {
    return std::make_unique<algos::KargerRuhlNearest>(
        algos::KargerRuhlConfig{});
  }
  if (name == "tapestry") {
    return std::make_unique<algos::TapestryNearest>(algos::TapestryConfig{});
  }
  if (name == "beaconing") {
    return std::make_unique<algos::BeaconingNearest>(algos::BeaconingConfig{});
  }
  return std::make_unique<algos::TiersNearest>(algos::TiersConfig{});
}

/// Lognormal sessions: the heavy-tailed lifetime model the serving
/// scenario ships with.
ChurnSchedule LognormalSchedule() {
  ChurnScheduleConfig config;
  config.duration_s = 120.0;
  config.events_per_s = 1.0;
  config.mean_session_s = 60.0;
  config.session_model = SessionModel::kLogNormal;
  config.lognormal_sigma = 1.5;
  config.seed = 5;
  return ChurnSchedule::Poisson(config);
}

ScenarioConfig BaseScenario() {
  ScenarioConfig config;
  config.initial_overlay = 80;
  config.epochs = 3;
  config.queries_per_epoch = 60;
  config.num_threads = 1;
  config.seed = 77;
  return config;
}

const std::vector<int> kReaderCounts = {1, 2, 8};

/// Runs serving at each reader count against a fresh serial replay
/// and asserts bit-identity plus the deterministic staleness
/// invariants. Every run gets a fresh algorithm instance.
void ExpectServingMatchesReplay(
    const LatencySpace& space, const matrix::ClusterLayout* layout,
    const std::function<std::unique_ptr<NearestPeerAlgorithm>()>& make,
    const ChurnSchedule& schedule, const ScenarioConfig& config,
    const std::vector<NodeId>& population = {}) {
  const auto replay_algo = make();
  const ScenarioReport replay = RunScenario(space, layout, *replay_algo,
                                            schedule, config, population);
  std::vector<StalenessReport> first_staleness;
  for (const int readers : kReaderCounts) {
    ServingConfig serving;
    serving.scenario = config;
    serving.reader_threads = readers;
    const auto algo = make();
    const ServingReport report =
        RunServing(space, layout, *algo, schedule, serving, population);
    EXPECT_TRUE(ScenarioReportsIdentical(report.scenario, replay))
        << replay.algorithm << " with " << readers
        << " readers diverged from serial replay";
    EXPECT_EQ(report.reader_threads, readers);
    EXPECT_EQ(report.snapshots_published,
              static_cast<std::size_t>(config.epochs));
    ASSERT_EQ(report.staleness.size(),
              static_cast<std::size_t>(config.epochs));
    for (const StalenessReport& s : report.staleness) {
      EXPECT_GE(s.p_exact_live, 0.0);
      EXPECT_LE(s.p_exact_live, 1.0);
      EXPECT_GE(s.p_found_departed, 0.0);
      EXPECT_LE(s.p_found_departed, 1.0);
    }
    // The final epoch scores against its own membership: nothing has
    // departed, and "still the closest among live peers" reduces to
    // the epoch's own exactness rate.
    EXPECT_EQ(report.staleness.back().p_found_departed, 0.0);
    EXPECT_EQ(report.staleness.back().p_exact_live,
              report.scenario.epochs.back().p_exact_closest);
    // Staleness is deterministic: every reader count must agree.
    if (first_staleness.empty()) {
      first_staleness = report.staleness;
    } else {
      for (std::size_t e = 0; e < first_staleness.size(); ++e) {
        EXPECT_EQ(report.staleness[e].p_exact_live,
                  first_staleness[e].p_exact_live);
        EXPECT_EQ(report.staleness[e].p_found_departed,
                  first_staleness[e].p_found_departed);
      }
    }
  }
}

// --- Equivalence: five structured schemes --------------------------------

TEST(Serving, MatchesSerialReplayForEveryScheme) {
  const auto world = SmallClusteredWorld(3);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = LognormalSchedule();
  const ScenarioConfig config = BaseScenario();
  for (const std::string name :
       {"meridian", "karger-ruhl", "tapestry", "beaconing", "tiers"}) {
    SCOPED_TRACE(name);
    ExpectServingMatchesReplay(
        space, &world.layout, [&] { return MakeAlgo(name); }, schedule,
        config);
  }
}

// --- Equivalence under probe loss ----------------------------------------

TEST(Serving, MatchesSerialReplayUnderProbeLoss) {
  const auto world = SmallClusteredWorld(9);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = LognormalSchedule();
  ScenarioConfig config = BaseScenario();
  config.fault.loss_rate = 0.1;
  config.fault.max_attempts = 2;
  for (const std::string name :
       {"meridian", "karger-ruhl", "tiers", "tapestry"}) {
    SCOPED_TRACE(name);
    ExpectServingMatchesReplay(
        space, &world.layout, [&] { return MakeAlgo(name); }, schedule,
        config);
  }
}

// --- Equivalence with repeated targets under faults ----------------------

TEST(Serving, MatchesSerialReplayWithRepeatTargetsUnderFaults) {
  // Zipf targets repeat within every reader's chunk, so each reader's
  // truth memo serves hits while the chunk split (and so which memo
  // scores a target first) changes with the reader count; the partition
  // window exercises the memoized reachable truth too.
  const auto world = SmallClusteredWorld(4);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = LognormalSchedule();
  ScenarioConfig config = BaseScenario();
  config.queries_per_epoch = 240;
  config.query_zipf_s = 1.0;
  config.fault.loss_rate = 0.05;
  config.fault.max_attempts = 3;
  config.fault.grey_node_frac = 0.1;
  config.fault.grey_loss_rate = 0.5;
  config.fault.asymmetric_loss = 0.02;
  config.fault.suspicion.strikes = 3;
  FaultConfig::Partition window;
  window.start_epoch = 1;
  window.end_epoch = 2;
  window.groups = {{0, 1}, {2, 3}};
  config.fault.partitions.push_back(window);
  for (const std::string name :
       {"meridian", "karger-ruhl", "tiers", "tapestry"}) {
    SCOPED_TRACE(name);
    ExpectServingMatchesReplay(
        space, &world.layout, [&] { return MakeAlgo(name); }, schedule,
        config);
  }
}

// --- Equivalence: the §5 hybrids -----------------------------------------

TEST(Serving, HybridMatchesSerialReplay) {
  util::Rng world_rng(501);
  net::TopologyConfig tconfig = net::SmallTestConfig();
  tconfig.azureus_hosts = 800;
  tconfig.azureus_tcp_respond_prob = 1.0;
  tconfig.azureus_trace_respond_prob = 1.0;
  const net::Topology topology = net::Topology::Generate(tconfig, world_rng);
  const mech::TopologySpace space(topology);
  const std::vector<NodeId> population =
      topology.HostsOfKind(net::HostKind::kAzureusPeer);

  const ChurnSchedule schedule = LognormalSchedule();
  ScenarioConfig config = BaseScenario();
  config.initial_overlay =
      static_cast<NodeId>(population.size() * 2 / 3);

  for (const mech::Mechanism mechanism :
       {mech::Mechanism::kUcl, mech::Mechanism::kPrefix,
        mech::Mechanism::kRegistry}) {
    SCOPED_TRACE(MechanismName(mechanism));
    const auto make = [&]() -> std::unique_ptr<NearestPeerAlgorithm> {
      return std::make_unique<mech::HybridNearest>(
          topology, mechanism,
          std::make_unique<meridian::MeridianOverlay>(
              meridian::MeridianConfig{}));
    };
    ExpectServingMatchesReplay(space, nullptr, make, schedule, config,
                               population);
  }
}

// --- Final algorithm state -----------------------------------------------

TEST(Serving, LeavesAlgorithmInSameFinalStateAsScenario) {
  const auto world = SmallClusteredWorld(3);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = LognormalSchedule();
  const ScenarioConfig config = BaseScenario();

  const auto scenario_algo = MakeAlgo("karger-ruhl");
  (void)RunScenario(space, &world.layout, *scenario_algo, schedule, config);

  ServingConfig serving;
  serving.scenario = config;
  serving.reader_threads = 2;
  const auto serving_algo = MakeAlgo("karger-ruhl");
  (void)RunServing(space, &world.layout, *serving_algo, schedule, serving);

  ASSERT_EQ(scenario_algo->members(), serving_algo->members());
  const MeteredSpace metered(space);
  for (const NodeId target : {NodeId{0}, NodeId{7}, NodeId{42}}) {
    util::Rng rng_a(991);
    util::Rng rng_b(991);
    EXPECT_EQ(scenario_algo->FindNearest(target, metered, rng_a).found,
              serving_algo->FindNearest(target, metered, rng_b).found);
  }
}

// --- Preconditions -------------------------------------------------------

TEST(Serving, RejectsLoadTracking) {
  const auto world = SmallClusteredWorld(3);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = LognormalSchedule();
  ServingConfig serving;
  serving.scenario = BaseScenario();
  serving.scenario.fault.track_load = true;
  const auto algo = MakeAlgo("tiers");
  EXPECT_THROW(RunServing(space, &world.layout, *algo, schedule, serving),
               util::Error);
}

/// Minimal algorithm with no snapshot support (and no parallel-query
/// audit) for the precondition tests.
class PlainNearest : public NearestPeerAlgorithm {
 public:
  std::string name() const override { return "plain"; }
  void Build(const LatencySpace& space, std::vector<NodeId> members,
             util::Rng& rng) override {
    (void)space;
    (void)rng;
    members_ = std::move(members);
  }
  QueryResult FindNearest(NodeId target, const MeteredSpace& metered,
                          util::Rng& rng) override {
    (void)rng;
    QueryResult result;
    result.found = members_.front();
    result.found_latency_ms = metered.Latency(target, result.found);
    result.probes = 1;
    return result;
  }
  const std::vector<NodeId>& members() const override { return members_; }

 private:
  std::vector<NodeId> members_;
};

TEST(Serving, RejectsAlgorithmWithoutSnapshotSupport) {
  const auto world = SmallClusteredWorld(3);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = LognormalSchedule();
  ServingConfig serving;
  serving.scenario = BaseScenario();
  PlainNearest algo;
  EXPECT_FALSE(algo.SupportsSnapshot());
  EXPECT_THROW(RunServing(space, &world.layout, algo, schedule, serving),
               util::Error);
  EXPECT_THROW(algo.Clone(), util::Error);
}

/// Snapshot-capable but not parallel-query-safe: serving must refuse
/// more than one reader thread.
class SerialSnapshotNearest final : public PlainNearest {
 public:
  bool SupportsSnapshot() const override { return true; }
  std::unique_ptr<NearestPeerAlgorithm> Clone() const override {
    return DetachedClone(std::make_unique<SerialSnapshotNearest>(*this));
  }
};

TEST(Serving, RejectsMultipleReadersWithoutParallelQuerySafety) {
  const auto world = SmallClusteredWorld(3);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = LognormalSchedule();
  ServingConfig serving;
  serving.scenario = BaseScenario();
  serving.reader_threads = 2;
  SerialSnapshotNearest algo;
  EXPECT_THROW(RunServing(space, &world.layout, algo, schedule, serving),
               util::Error);
  // One reader is fine: the restriction is on concurrency, not the
  // serving mode itself.
  serving.reader_threads = 1;
  const ServingReport report =
      RunServing(space, &world.layout, algo, schedule, serving);
  EXPECT_EQ(report.snapshots_published,
            static_cast<std::size_t>(serving.scenario.epochs));
}

// --- The identity oracle ----------------------------------------------------

/// A karger-ruhl run with the per-node load ledger on.
ScenarioReport TrackedLoadRun(int threads) {
  const auto world = SmallClusteredWorld(12);
  const MatrixSpace space(world.matrix);
  ScenarioConfig config = BaseScenario();
  config.fault.track_load = true;
  config.num_threads = threads;
  const auto algo = MakeAlgo("karger-ruhl");
  return RunScenario(space, &world.layout, *algo, LognormalSchedule(),
                     config);
}

TEST(ScenarioReportsIdenticalFn, ComparesEveryLoadField) {
  const ScenarioReport base = TrackedLoadRun(1);
  ASSERT_TRUE(base.load_tracking);
  ASSERT_GT(base.load.total, 0u);
  ASSERT_TRUE(ScenarioReportsIdentical(base, base));
  const std::function<void(PerNodeSnapshot&)> edits[] = {
      [](PerNodeSnapshot& l) { ++l.total; },
      [](PerNodeSnapshot& l) { ++l.max; },
      [](PerNodeSnapshot& l) { ++l.max_node; },
      [](PerNodeSnapshot& l) { l.median += 0.5; },
      [](PerNodeSnapshot& l) { l.gini += 1e-12; },
  };
  for (std::size_t i = 0; i < std::size(edits); ++i) {
    SCOPED_TRACE(i);
    ScenarioReport edited = base;
    edits[i](edited.load);
    EXPECT_FALSE(ScenarioReportsIdentical(base, edited));
    EXPECT_FALSE(ScenarioReportsIdentical(edited, base));
  }
}

TEST(ScenarioReportsIdenticalFn, TrackedLoadIsThreadCountInvariant) {
  const ScenarioReport one = TrackedLoadRun(1);
  const ScenarioReport eight = TrackedLoadRun(8);
  EXPECT_GT(one.load.total, 0u);
  EXPECT_TRUE(ScenarioReportsIdentical(one, eight));
}

}  // namespace
}  // namespace np::core
