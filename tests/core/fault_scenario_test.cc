// Fault injection through the scenario engine: crash schedule gating
// (crash_fraction 0 == pre-fault schedules, byte for byte), driver
// crash semantics (no pool return, pending repairs, ForceCrash),
// completion of every algorithm class at 30% probe loss, thread-count
// invariance of fault-mode metrics, totals that sum the epochs, delayed
// crash-repair billing, the Zipf query-skew determinism, and the load
// ledger's no-perturbation contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algos/beaconing.h"
#include "algos/karger_ruhl.h"
#include "algos/tapestry.h"
#include "algos/tiers.h"
#include "core/churn.h"
#include "core/scenario.h"
#include "matrix/generators.h"
#include "meridian/meridian.h"

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
    return std::make_unique<algos::KargerRuhlNearest>(algos::KargerRuhlConfig{});
  }
  if (name == "tapestry") {
    return std::make_unique<algos::TapestryNearest>(algos::TapestryConfig{});
  }
  if (name == "beaconing") {
    return std::make_unique<algos::BeaconingNearest>(algos::BeaconingConfig{});
  }
  return std::make_unique<algos::TiersNearest>(algos::TiersConfig{});
}

ScenarioConfig FaultScenario(int threads) {
  ScenarioConfig config;
  config.initial_overlay = 80;
  config.epochs = 3;
  config.queries_per_epoch = 60;
  config.num_threads = threads;
  config.fault.loss_rate = 0.15;
  config.fault.max_attempts = 2;
  config.fault.track_load = true;
  config.seed = 77;
  return config;
}

ChurnSchedule CrashSchedule() {
  ChurnScheduleConfig config;
  config.duration_s = 90.0;
  config.events_per_s = 1.0;
  config.join_fraction = 0.5;
  config.crash_fraction = 0.5;
  config.seed = 5;
  return ChurnSchedule::Poisson(config);
}

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

// --- Schedule gating -------------------------------------------------------

TEST(CrashChurn, ZeroCrashFractionIsByteIdenticalToPreFaultSchedules) {
  ChurnScheduleConfig config;
  config.duration_s = 200.0;
  config.events_per_s = 1.5;
  config.seed = 21;
  const ChurnSchedule before = ChurnSchedule::Poisson(config);
  config.crash_fraction = 0.0;  // explicit zero: must not draw the Bernoulli
  const ChurnSchedule after = ChurnSchedule::Poisson(config);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before.events()[i].time_s, after.events()[i].time_s);
    EXPECT_EQ(before.events()[i].type, after.events()[i].type);
    EXPECT_EQ(before.events()[i].join_of, after.events()[i].join_of);
    EXPECT_NE(before.events()[i].type, ChurnEventType::kCrash);
  }
}

TEST(CrashChurn, CrashFractionConvertsDeparturesOnly) {
  ChurnScheduleConfig config;
  config.duration_s = 300.0;
  config.events_per_s = 1.0;
  config.mean_session_s = 60.0;
  config.crash_fraction = 0.6;
  config.seed = 4;
  const ChurnSchedule schedule = ChurnSchedule::Poisson(config);
  config.crash_fraction = 0.0;
  const ChurnSchedule graceful = ChurnSchedule::Poisson(config);
  ASSERT_EQ(schedule.size(), graceful.size());
  int crashes = 0;
  int leaves = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ChurnEvent& event = schedule.events()[i];
    // Crash conversion touches nothing but the type of departures:
    // same times, same join pairing.
    EXPECT_EQ(event.time_s, graceful.events()[i].time_s);
    EXPECT_EQ(event.join_of, graceful.events()[i].join_of);
    if (event.type == ChurnEventType::kCrash) {
      ++crashes;
      EXPECT_EQ(graceful.events()[i].type, ChurnEventType::kLeave);
    } else {
      EXPECT_EQ(event.type, graceful.events()[i].type);
      if (event.type == ChurnEventType::kLeave) ++leaves;
    }
  }
  // 60% of a few dozen departures: both kinds must be present.
  EXPECT_GT(crashes, 0);
  EXPECT_GT(leaves, 0);
  EXPECT_GT(crashes, leaves);  // 0.6 > 0.4, wide margin at this count
}

// --- Driver crash semantics ------------------------------------------------

TEST(ChurnDriver, CrashedNodesNeverReturnToThePool) {
  std::vector<NodeId> members = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<NodeId> pool = {8, 9};
  ChurnDriver driver(nullptr, members, pool, /*seed=*/3);
  const ChurnSchedule schedule = CrashSchedule();
  const ChurnStats stats = driver.ApplyAll(schedule);
  EXPECT_GT(stats.crashes, 0);
  EXPECT_EQ(driver.crashed().size(), static_cast<std::size_t>(stats.crashes));
  for (const NodeId node : driver.crashed()) {
    for (const NodeId p : driver.pool()) {
      EXPECT_NE(p, node);
    }
    for (const NodeId m : driver.members()) {
      EXPECT_NE(m, node);
    }
  }
  // Every crash queued exactly one pending repair; draining is
  // one-shot.
  const auto pending = driver.TakePendingRepairs();
  EXPECT_EQ(pending.size(), static_cast<std::size_t>(stats.crashes));
  EXPECT_TRUE(driver.TakePendingRepairs().empty());
}

TEST(ChurnDriver, ForceCrashRespectsMembershipAndFloor) {
  std::vector<NodeId> members = {0, 1, 2};
  ChurnDriver driver(nullptr, members, {}, /*seed=*/3);
  EXPECT_TRUE(driver.ForceCrash(1));
  EXPECT_EQ(driver.members().size(), 2u);
  EXPECT_EQ(driver.crashed().count(1), 1u);
  // Not a member (already crashed): refused.
  EXPECT_FALSE(driver.ForceCrash(1));
  // Membership floor: the driver must not crash the overlay away.
  EXPECT_FALSE(driver.ForceCrash(0) && driver.members().empty());
  const auto pending = driver.TakePendingRepairs();
  EXPECT_GE(pending.size(), 1u);
  EXPECT_EQ(pending.front(), 1);
}

// --- Scenario-level invariants --------------------------------------------

TEST(FaultScenario, EveryAlgorithmClassCompletesAtThirtyPercentLoss) {
  const auto world = SmallClusteredWorld(11);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = CrashSchedule();
  ScenarioConfig config = FaultScenario(1);
  config.fault.loss_rate = 0.3;
  for (const std::string& name :
       {std::string("meridian"), std::string("karger-ruhl"),
        std::string("tapestry"), std::string("beaconing"),
        std::string("tiers")}) {
    const auto algo = MakeAlgo(name);
    const ScenarioReport report =
        RunScenario(space, &world.layout, *algo, schedule, config);
    ASSERT_EQ(report.epochs.size(), 3u) << name;
    EXPECT_TRUE(report.fault_mode) << name;
    EXPECT_GT(report.totals.failed_probes, 0u) << name;
    std::int64_t crashes = 0;
    for (const EpochReport& epoch : report.epochs) {
      crashes += epoch.crashes;
      // Queries ran: every epoch answers its full query budget (failed
      // queries are counted, not dropped).
      EXPECT_GT(epoch.messages_per_query, 0.0) << name;
      EXPECT_LE(epoch.p_query_failed, 0.2) << name;
    }
    EXPECT_GT(crashes, 0) << name;
    EXPECT_EQ(report.totals.queries,
              static_cast<std::uint64_t>(config.epochs) *
                  static_cast<std::uint64_t>(config.queries_per_epoch))
        << name;
  }
}

TEST(FaultScenario, FaultMetricsAreThreadCountInvariant) {
  const auto world = SmallClusteredWorld(13);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = CrashSchedule();
  std::vector<ScenarioReport> reports;
  for (const int threads : {1, 2, 8}) {
    meridian::MeridianConfig mconfig;
    mconfig.ring_size = 4;
    mconfig.gossip_bootstrap_contacts = 3;
    meridian::MeridianOverlay algo(mconfig);
    reports.push_back(RunScenario(space, &world.layout, algo, schedule,
                                  FaultScenario(threads)));
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    const ScenarioReport& a = reports[0];
    const ScenarioReport& b = reports[i];
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    EXPECT_EQ(a.totals.query_probes, b.totals.query_probes);
    EXPECT_EQ(a.totals.failed_probes, b.totals.failed_probes);
    EXPECT_EQ(a.totals.retries, b.totals.retries);
    EXPECT_EQ(a.failed_queries, b.failed_queries);
    EXPECT_EQ(a.load.total, b.load.total);
    EXPECT_EQ(a.load.max, b.load.max);
    EXPECT_EQ(a.load.max_node, b.load.max_node);
    EXPECT_EQ(a.load.gini, b.load.gini);
    for (std::size_t e = 0; e < a.epochs.size(); ++e) {
      EXPECT_EQ(a.epochs[e].p_exact_closest, b.epochs[e].p_exact_closest);
      EXPECT_EQ(a.epochs[e].crashes, b.epochs[e].crashes);
      EXPECT_EQ(a.epochs[e].p_query_failed, b.epochs[e].p_query_failed);
      EXPECT_EQ(a.epochs[e].failed_probes, b.epochs[e].failed_probes);
      EXPECT_EQ(a.epochs[e].retries, b.epochs[e].retries);
      EXPECT_EQ(a.epochs[e].load_max, b.epochs[e].load_max);
      EXPECT_EQ(a.epochs[e].load_gini, b.epochs[e].load_gini);
    }
  }
}

TEST(FaultScenario, TotalsMatchEpochsAtEveryThreadCount) {
  const auto world = SmallClusteredWorld(13);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = CrashSchedule();
  for (const int threads : {1, 8}) {
    ScenarioConfig config = FaultScenario(threads);
    config.fault.suspicion.strikes = 2;
    FaultConfig::Partition window;
    window.start_epoch = 1;
    window.end_epoch = 2;
    window.groups = {{0, 1}, {2, 3}};
    config.fault.partitions.push_back(window);
    for (const std::string name : {"karger-ruhl", "tiers"}) {
      SCOPED_TRACE(name + " at " + std::to_string(threads) + " threads");
      const auto algo = MakeAlgo(name);
      ExpectTotalsMatchEpochs(
          RunScenario(space, &world.layout, *algo, schedule, config), config);
    }
  }
}

TEST(FaultScenario, CrashRepairsAreBilledTheEpochAfterDetection) {
  const auto world = SmallClusteredWorld(17);
  const MatrixSpace space(world.matrix);
  // All crashes in the first epoch's window: crashes bill nothing when
  // they happen (no notify), and epoch 1's churn window carries the
  // repair bill. The trailing join stretches the trace horizon to 90 s
  // so the three epoch windows are (0,30], (30,60], (60,90].
  std::vector<ChurnEvent> events;
  for (int i = 0; i < 6; ++i) {
    ChurnEvent event;
    event.time_s = 5.0 + i;
    event.type = ChurnEventType::kCrash;
    events.push_back(event);
  }
  ChurnEvent stretch;
  stretch.time_s = 90.0;
  stretch.type = ChurnEventType::kJoin;
  events.push_back(stretch);
  const ChurnSchedule schedule = ChurnSchedule::FromTrace(std::move(events));
  ScenarioConfig config;
  config.initial_overlay = 60;
  config.epochs = 3;
  config.queries_per_epoch = 20;
  config.num_threads = 1;
  config.seed = 9;
  // Loss stays 0: fault mode here is pure crash semantics. Tapestry
  // makes the repair bill visible — purging a crashed peer vacates
  // routing-table slots whose repair probes replacement candidates,
  // unlike Meridian's probe-free occurrence purge.
  algos::TapestryNearest algo(algos::TapestryConfig{});
  const ScenarioReport report =
      RunScenario(space, &world.layout, algo, schedule, config);
  ASSERT_EQ(report.epochs.size(), 3u);
  EXPECT_TRUE(report.fault_mode);
  EXPECT_EQ(report.epochs[0].crashes, 6);
  // Crashes are silent when they happen...
  EXPECT_EQ(report.epochs[0].maintenance_messages, 0u);
  // ...and the repair (RemoveMember purges) is billed one epoch later.
  EXPECT_GT(report.epochs[1].maintenance_messages, 0u);
  EXPECT_EQ(report.epochs[2].crashes, 0);
}

TEST(FaultScenario, ZipfSkewIsDeterministicAndActuallySkews) {
  const auto world = SmallClusteredWorld(19);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = CrashSchedule();
  ScenarioConfig config = FaultScenario(1);
  config.query_zipf_s = 1.2;
  std::vector<ScenarioReport> runs;
  for (int run = 0; run < 2; ++run) {
    meridian::MeridianConfig mconfig;
    mconfig.ring_size = 4;
    mconfig.gossip_bootstrap_contacts = 3;
    meridian::MeridianOverlay algo(mconfig);
    runs.push_back(RunScenario(space, &world.layout, algo, schedule, config));
  }
  ASSERT_EQ(runs[0].epochs.size(), runs[1].epochs.size());
  EXPECT_EQ(runs[0].totals.query_probes, runs[1].totals.query_probes);
  for (std::size_t e = 0; e < runs[0].epochs.size(); ++e) {
    EXPECT_EQ(runs[0].epochs[e].p_exact_closest,
              runs[1].epochs[e].p_exact_closest);
  }
  // And the skew changes which targets get queried vs uniform.
  ScenarioConfig uniform = FaultScenario(1);
  meridian::MeridianConfig mconfig;
  mconfig.ring_size = 4;
  mconfig.gossip_bootstrap_contacts = 3;
  meridian::MeridianOverlay algo(mconfig);
  const ScenarioReport uniform_report =
      RunScenario(space, &world.layout, algo, schedule, uniform);
  EXPECT_NE(runs[0].totals.query_probes, uniform_report.totals.query_probes);
}

TEST(FaultScenario, LoadTrackingDoesNotPerturbAccuracyMetrics) {
  const auto world = SmallClusteredWorld(23);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = CrashSchedule();
  ScenarioConfig tracked = FaultScenario(1);
  ScenarioConfig untracked = tracked;
  untracked.fault.track_load = false;
  std::vector<ScenarioReport> reports;
  for (const ScenarioConfig* config : {&tracked, &untracked}) {
    meridian::MeridianConfig mconfig;
    mconfig.ring_size = 4;
    mconfig.gossip_bootstrap_contacts = 3;
    meridian::MeridianOverlay algo(mconfig);
    reports.push_back(
        RunScenario(space, &world.layout, algo, schedule, *config));
  }
  const ScenarioReport& with = reports[0];
  const ScenarioReport& without = reports[1];
  EXPECT_TRUE(with.load_tracking);
  EXPECT_FALSE(without.load_tracking);
  EXPECT_GT(with.load.total, 0u);
  ASSERT_EQ(with.epochs.size(), without.epochs.size());
  EXPECT_EQ(with.totals.query_probes, without.totals.query_probes);
  EXPECT_EQ(with.totals.failed_probes, without.totals.failed_probes);
  for (std::size_t e = 0; e < with.epochs.size(); ++e) {
    EXPECT_EQ(with.epochs[e].p_exact_closest,
              without.epochs[e].p_exact_closest);
    EXPECT_EQ(with.epochs[e].messages_per_query,
              without.epochs[e].messages_per_query);
    // The ledger is the only difference.
    EXPECT_EQ(without.epochs[e].load_max, 0u);
    EXPECT_EQ(without.epochs[e].load_gini, 0.0);
  }
}

}  // namespace
}  // namespace np::core
