// Serving-mode equivalence: the concurrent snapshot engine must
// reproduce the deterministic scenario engine bit for bit — for every
// structured scheme and the §5 hybrids, for every reader count, under
// lognormal session churn and under probe loss — plus the staleness
// metrics' deterministic invariants, totals that sum the epochs, the
// post-run algorithm state, the serving-mode precondition checks, the
// snapshot reclamation bound, failures on either side of the
// writer/reader hand-off, and the algorithm Clone() contract the
// snapshots are built from.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algos/beaconing.h"
#include "algos/karger_ruhl.h"
#include "algos/tapestry.h"
#include "algos/tiers.h"
#include "core/churn.h"
#include "core/probe_counter.h"
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

/// The whole-run totals are the sums of the epochs: every query, every
/// metered query probe and every fault tally is charged exactly once.
/// Asserts that the run lost, retried and skipped probes, so the fault
/// sums are not vacuous.
void ExpectTotalsMatchEpochs(const ScenarioReport& report,
                             const ScenarioConfig& config) {
  ASSERT_EQ(report.epochs.size(), static_cast<std::size_t>(config.epochs));
  std::uint64_t query_probes = 0;
  std::uint64_t failed_probes = 0;
  std::uint64_t retries = 0;
  std::uint64_t suspicion_skips = 0;
  for (const EpochReport& er : report.epochs) {
    query_probes += static_cast<std::uint64_t>(
        std::llround(er.messages_per_query * config.queries_per_epoch));
    failed_probes += er.failed_probes;
    retries += er.retries;
    suspicion_skips += er.suspicion_skips;
  }
  EXPECT_EQ(report.totals.queries,
            static_cast<std::uint64_t>(config.epochs) *
                static_cast<std::uint64_t>(config.queries_per_epoch));
  EXPECT_EQ(report.totals.query_probes, query_probes);
  EXPECT_EQ(report.totals.failed_probes, failed_probes);
  EXPECT_EQ(report.totals.retries, retries);
  EXPECT_EQ(report.totals.suspicion_skips, suspicion_skips);
  EXPECT_GT(query_probes, 0u);
  EXPECT_GT(failed_probes, 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(suspicion_skips, 0u);
}

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

// --- Totals: the reduce charges every epoch's queries once ---------------

TEST(Serving, TotalsMatchEpochsUnderFaults) {
  const auto world = SmallClusteredWorld(4);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = LognormalSchedule();
  ScenarioConfig config = BaseScenario();
  config.fault.loss_rate = 0.1;
  config.fault.max_attempts = 2;
  config.fault.suspicion.strikes = 2;
  FaultConfig::Partition window;
  window.start_epoch = 1;
  window.end_epoch = 2;
  window.groups = {{0, 1}, {2, 3}};
  config.fault.partitions.push_back(window);
  for (const int readers : {1, 8}) {
    ServingConfig serving;
    serving.scenario = config;
    serving.reader_threads = readers;
    for (const std::string name : {"karger-ruhl", "tiers"}) {
      SCOPED_TRACE(name + " with " + std::to_string(readers) + " readers");
      const auto algo = MakeAlgo(name);
      ExpectTotalsMatchEpochs(
          RunServing(space, &world.layout, *algo, schedule, serving).scenario,
          config);
    }
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
    return result;
  }
  const std::vector<NodeId>& members() const override { return members_; }

 protected:
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

// --- Reclamation --------------------------------------------------------

TEST(Serving, RetiredSnapshotsStayBoundedAtEightReaders) {
  // A reader drops epoch k-1 before it pins k, and the writer publishes
  // k+1 only after every reader pinned k: after any publish, at most
  // the snapshot just superseded is still alive.
  const auto world = SmallClusteredWorld(3);
  const MatrixSpace space(world.matrix);
  ServingConfig serving;
  serving.scenario = BaseScenario();
  serving.scenario.epochs = 8;
  serving.reader_threads = 8;
  const auto algo = MakeAlgo("karger-ruhl");
  const ServingReport report =
      RunServing(space, &world.layout, *algo, LognormalSchedule(), serving);
  EXPECT_EQ(report.snapshots_published,
            static_cast<std::size_t>(serving.scenario.epochs));
  EXPECT_LE(report.max_retired_alive, 1u);
}

/// Snapshot lifetimes as seen from the clones themselves. Clone g is
/// the snapshot published at epoch g; the first query on each clone
/// below `hold_below` holds its reader (and so its pin) until the
/// writer has published epoch g+1, then records which clones are
/// alive.
struct Generations {
  std::mutex mu;
  std::condition_variable cv;
  int hold_below = 0;
  int made = 0;
  std::set<int> live;
  struct Hold {
    int generation = 0;
    bool next_published = false;
    std::set<int> live;
  };
  std::vector<Hold> holds;
};

class PinWatchNearest final : public PlainNearest {
 public:
  explicit PinWatchNearest(std::shared_ptr<Generations> gens)
      : gens_(std::move(gens)) {}
  PinWatchNearest(const PinWatchNearest&) = default;
  ~PinWatchNearest() override {
    if (generation_ >= 0) {
      std::lock_guard<std::mutex> lock(gens_->mu);
      gens_->live.erase(generation_);
    }
  }
  bool SupportsChurn() const override { return true; }
  bool SupportsSnapshot() const override { return true; }
  void AddMember(NodeId node, util::Rng& rng) override {
    (void)rng;
    members_.push_back(node);
  }
  void RemoveMember(NodeId node) override {
    members_.erase(std::find(members_.begin(), members_.end(), node));
  }
  QueryResult FindNearest(NodeId target, const MeteredSpace& metered,
                          util::Rng& rng) override {
    if (generation_ >= 0 && generation_ < gens_->hold_below && !held_) {
      held_ = true;
      std::unique_lock<std::mutex> lock(gens_->mu);
      // The writer clones epoch g+2's snapshot only after publishing
      // g+1, and cannot publish g+2 while this reader still holds g.
      Generations::Hold hold;
      hold.generation = generation_;
      hold.next_published =
          gens_->cv.wait_for(lock, std::chrono::seconds(30), [&] {
            return gens_->made > generation_ + 2;
          });
      hold.live = gens_->live;
      gens_->holds.push_back(std::move(hold));
    }
    return PlainNearest::FindNearest(target, metered, rng);
  }
  std::unique_ptr<NearestPeerAlgorithm> Clone() const override {
    auto clone = std::make_unique<PinWatchNearest>(*this);
    {
      std::lock_guard<std::mutex> lock(gens_->mu);
      clone->generation_ = gens_->made++;
      gens_->live.insert(clone->generation_);
    }
    gens_->cv.notify_all();
    return DetachedClone(std::move(clone));
  }

 private:
  std::shared_ptr<Generations> gens_;
  int generation_ = -1;  // the live overlay itself is not a snapshot
  bool held_ = false;
};

/// Serves `epochs` epochs with one reader, holding the first query on
/// each snapshot below `hold_below`.
ServingReport ServeHolding(const std::shared_ptr<Generations>& gens,
                           int epochs, int hold_below) {
  gens->hold_below = hold_below;
  const auto world = SmallClusteredWorld(3);
  const MatrixSpace space(world.matrix);
  ServingConfig serving;
  serving.scenario = BaseScenario();
  serving.scenario.epochs = epochs;
  PinWatchNearest algo(gens);
  return RunServing(space, &world.layout, algo, LognormalSchedule(),
                    serving);
}

TEST(SnapshotPublisher, RetiredSnapshotStaysAliveWhilePinned) {
  const auto gens = std::make_shared<Generations>();
  const ServingReport report = ServeHolding(gens, /*epochs=*/3,
                                            /*hold_below=*/1);
  ASSERT_EQ(gens->holds.size(), 1u);
  const Generations::Hold& hold = gens->holds.front();
  EXPECT_EQ(hold.generation, 0);
  ASSERT_TRUE(hold.next_published);
  // Epoch 0 is superseded but must stay alive: the reader still holds
  // it. Alongside it: the current snapshot and the writer's next one.
  EXPECT_EQ(hold.live, (std::set<int>{0, 1, 2}));
  EXPECT_EQ(report.max_retired_alive, 1u);
  // Every pin dropped: every snapshot is reclaimed.
  EXPECT_TRUE(gens->live.empty());
  EXPECT_EQ(gens->made, 3);
}

TEST(SnapshotPublisher, RetiredChainTracksEveryPinnedGeneration) {
  const auto gens = std::make_shared<Generations>();
  const ServingReport report = ServeHolding(gens, /*epochs=*/5,
                                            /*hold_below=*/3);
  ASSERT_EQ(gens->holds.size(), 3u);
  for (int g = 0; g < 3; ++g) {
    SCOPED_TRACE(g);
    const Generations::Hold& hold = gens->holds[static_cast<std::size_t>(g)];
    EXPECT_EQ(hold.generation, g);
    ASSERT_TRUE(hold.next_published);
    // Each pinned generation outlives its publish; the one before it,
    // unpinned when the reader moved on, is already gone.
    EXPECT_EQ(hold.live, (std::set<int>{g, g + 1, g + 2}));
  }
  EXPECT_EQ(report.max_retired_alive, 1u);
  EXPECT_EQ(report.snapshots_published, 5u);
  EXPECT_TRUE(gens->live.empty());
}

// --- Failures on either side of the hand-off -----------------------------

/// Snapshot-capable, parallel-query-safe and churn-capable, with one
/// planted failure: the writer's `fail_add`-th AddMember throws, or
/// every query on the clone published at epoch `fail_clone` throws.
class FailingNearest final : public PlainNearest {
 public:
  FailingNearest(int fail_add, int fail_clone)
      : fail_add_(fail_add), fail_clone_(fail_clone) {}
  bool SupportsChurn() const override { return true; }
  bool ParallelQuerySafe() const override { return true; }
  bool SupportsSnapshot() const override { return true; }
  void AddMember(NodeId node, util::Rng& rng) override {
    (void)rng;
    if (++adds_ == fail_add_) {
      throw util::Error("planted writer failure");
    }
    members_.push_back(node);
  }
  void RemoveMember(NodeId node) override {
    members_.erase(std::find(members_.begin(), members_.end(), node));
  }
  QueryResult FindNearest(NodeId target, const MeteredSpace& metered,
                          util::Rng& rng) override {
    if (fail_queries_) {
      throw util::Error("planted reader failure");
    }
    return PlainNearest::FindNearest(target, metered, rng);
  }
  std::unique_ptr<NearestPeerAlgorithm> Clone() const override {
    auto clone = std::make_unique<FailingNearest>(*this);
    clone->fail_queries_ = clones_++ == fail_clone_;
    return DetachedClone(std::move(clone));
  }

 private:
  int fail_add_;
  int fail_clone_;
  int adds_ = 0;
  mutable int clones_ = 0;
  bool fail_queries_ = false;
};

/// Runs `algo` in serving mode and returns the util::Error message.
std::string ServingError(NearestPeerAlgorithm& algo, int readers) {
  const auto world = SmallClusteredWorld(3);
  const MatrixSpace space(world.matrix);
  ServingConfig serving;
  serving.scenario = BaseScenario();
  serving.reader_threads = readers;
  try {
    (void)RunServing(space, &world.layout, algo, LognormalSchedule(),
                     serving);
  } catch (const util::Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "RunServing did not throw";
  return "";
}

TEST(Serving, WriterFailureThrowsAfterJoiningReaders) {
  for (const int readers : {1, 4}) {
    SCOPED_TRACE(readers);
    FailingNearest algo(/*fail_add=*/4, /*fail_clone=*/-1);
    const std::string what = ServingError(algo, readers);
    EXPECT_NE(what.find("serving writer failed"), std::string::npos) << what;
    EXPECT_NE(what.find("planted writer failure"), std::string::npos)
        << what;
  }
}

TEST(Serving, ReaderFailureThrows) {
  for (const int readers : {1, 4}) {
    SCOPED_TRACE(readers);
    FailingNearest algo(/*fail_add=*/-1, /*fail_clone=*/1);
    const std::string what = ServingError(algo, readers);
    EXPECT_NE(what.find("serving reader failed"), std::string::npos) << what;
    EXPECT_NE(what.find("planted reader failure"), std::string::npos)
        << what;
  }
}

// --- The Clone() contract ------------------------------------------------

TEST(CloneContract, CloneIsDeepDetachedAndBitIdentical) {
  matrix::ClusteredConfig wconfig;
  wconfig.num_clusters = 3;
  wconfig.nets_per_cluster = 10;
  wconfig.peers_per_net = 2;
  util::Rng wrng(11);
  const auto world = matrix::GenerateClustered(wconfig, wrng);
  const MatrixSpace space(world.matrix);

  algos::KargerRuhlNearest algo{algos::KargerRuhlConfig{}};
  std::vector<NodeId> members;
  for (NodeId node = 0; node < 40; ++node) members.push_back(node);
  util::Rng build_rng(13);
  algo.Build(space, members, build_rng);

  const ProbePolicy policy(/*max_attempts=*/2);
  algo.AttachProbePolicy(&policy);
  ASSERT_TRUE(algo.SupportsSnapshot());
  const auto clone = algo.Clone();

  // Detached: the clone does not probe through the original's policy
  // (the serving engine attaches its own per-snapshot one).
  EXPECT_EQ(&clone->probe_policy(), &ProbePolicy::Default());
  const MeteredSpace clone_metered(space);
  const NodeId target = 55;
  util::Rng qrng_clone(17);
  const QueryResult before =
      clone->FindNearest(target, clone_metered, qrng_clone);

  // Bit-identical at clone time: same target, same rng stream, same
  // answer and metered bill as the original.
  const MeteredSpace metered(space);
  util::Rng qrng_orig(17);
  const QueryResult original = algo.FindNearest(target, metered, qrng_orig);
  EXPECT_EQ(original.found, before.found);
  EXPECT_EQ(metered.probes(), clone_metered.probes());

  // Deep: mutating the original (removing the found member) must not
  // change what the clone answers.
  ASSERT_TRUE(algo.SupportsChurn());
  algo.RemoveMember(before.found);
  util::Rng qrng_after(17);
  const QueryResult after = clone->FindNearest(target, metered, qrng_after);
  EXPECT_EQ(after.found, before.found);
  util::Rng qrng_mutated(17);
  EXPECT_NE(algo.FindNearest(target, metered, qrng_mutated).found,
            before.found);

  algo.AttachProbePolicy(nullptr);
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
