// Churn engine + scenario engine: schedule generation, resumable
// (chunked == straight-through) application, thread-count-invariant
// metrics and probe counts, and maintenance accounting for both the
// incremental and the rebuild-per-epoch algorithm classes.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algos/tiers.h"
#include "core/churn.h"
#include "core/experiment.h"
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

meridian::MeridianConfig SmallMeridian() {
  meridian::MeridianConfig config;
  config.ring_size = 4;
  config.gossip_bootstrap_contacts = 3;
  return config;
}

ScenarioConfig SmallScenario(int threads) {
  ScenarioConfig config;
  config.initial_overlay = 80;
  config.epochs = 3;
  config.queries_per_epoch = 60;
  config.num_threads = threads;
  config.seed = 77;
  return config;
}

ChurnSchedule SmallSchedule() {
  ChurnScheduleConfig config;
  config.duration_s = 90.0;
  config.events_per_s = 1.0;
  config.join_fraction = 0.5;
  config.seed = 5;
  return ChurnSchedule::Poisson(config);
}

void ExpectEpochsIdentical(const ScenarioReport& a, const ScenarioReport& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  EXPECT_EQ(a.build_messages, b.build_messages);
  EXPECT_EQ(a.final_members, b.final_members);
  EXPECT_EQ(a.totals.query_probes, b.totals.query_probes);
  EXPECT_EQ(a.totals.queries, b.totals.queries);
  EXPECT_EQ(a.totals.maintenance_probes, b.totals.maintenance_probes);
  EXPECT_EQ(a.totals.churn_events, b.totals.churn_events);
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    const EpochReport& x = a.epochs[e];
    const EpochReport& y = b.epochs[e];
    EXPECT_EQ(x.live_members, y.live_members);
    EXPECT_EQ(x.joins, y.joins);
    EXPECT_EQ(x.leaves, y.leaves);
    EXPECT_EQ(x.skipped_events, y.skipped_events);
    EXPECT_EQ(x.rebuilt, y.rebuilt);
    EXPECT_EQ(x.p_exact_closest, y.p_exact_closest);
    EXPECT_EQ(x.p_correct_cluster, y.p_correct_cluster);
    EXPECT_EQ(x.p_same_net, y.p_same_net);
    EXPECT_EQ(x.mean_found_latency_ms, y.mean_found_latency_ms);
    EXPECT_EQ(x.mean_hops, y.mean_hops);
    EXPECT_EQ(x.excess_latency_p50_ms, y.excess_latency_p50_ms);
    EXPECT_EQ(x.excess_latency_p95_ms, y.excess_latency_p95_ms);
    EXPECT_EQ(x.excess_latency_p99_ms, y.excess_latency_p99_ms);
    EXPECT_EQ(x.messages_per_query, y.messages_per_query);
    EXPECT_EQ(x.maintenance_messages, y.maintenance_messages);
  }
}

// --- Schedule generation ---------------------------------------------------

TEST(ChurnSchedule, PoissonIsDeterministicAndTimeSorted) {
  ChurnScheduleConfig config;
  config.duration_s = 200.0;
  config.events_per_s = 2.0;
  config.seed = 9;
  const ChurnSchedule a = ChurnSchedule::Poisson(config);
  const ChurnSchedule b = ChurnSchedule::Poisson(config);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].time_s, b.events()[i].time_s);
    EXPECT_EQ(a.events()[i].type, b.events()[i].type);
    if (i > 0) {
      EXPECT_GE(a.events()[i].time_s, a.events()[i - 1].time_s);
    }
    EXPECT_LE(a.events()[i].time_s, config.duration_s);
  }
  // ~duration * rate arrivals in expectation; allow generous slack.
  EXPECT_GT(a.size(), 250u);
  EXPECT_LT(a.size(), 550u);
}

TEST(ChurnSchedule, SessionModePairsLeavesWithTheirJoins) {
  ChurnScheduleConfig config;
  config.duration_s = 300.0;
  config.events_per_s = 1.0;
  config.mean_session_s = 60.0;
  config.seed = 4;
  const ChurnSchedule schedule = ChurnSchedule::Poisson(config);
  ASSERT_GT(schedule.size(), 0u);
  int leaves = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ChurnEvent& event = schedule.events()[i];
    if (event.type == ChurnEventType::kLeave) {
      ++leaves;
      ASSERT_GE(event.join_of, 0);
      ASSERT_LT(static_cast<std::size_t>(event.join_of), i);
      const ChurnEvent& join =
          schedule.events()[static_cast<std::size_t>(event.join_of)];
      EXPECT_EQ(join.type, ChurnEventType::kJoin);
      EXPECT_LT(join.time_s, event.time_s);
    }
  }
  EXPECT_GT(leaves, 0);
}

TEST(ChurnSchedule, FromTraceSortsAndValidates) {
  std::vector<ChurnEvent> events(3);
  events[0].time_s = 5.0;
  events[1].time_s = 1.0;
  events[1].type = ChurnEventType::kLeave;
  events[2].time_s = 3.0;
  const ChurnSchedule schedule = ChurnSchedule::FromTrace(events);
  EXPECT_EQ(schedule.events()[0].time_s, 1.0);
  EXPECT_EQ(schedule.events()[2].time_s, 5.0);
  EXPECT_EQ(schedule.duration_s(), 5.0);

  // join_of must reference an earlier join in the sorted trace.
  std::vector<ChurnEvent> bad(2);
  bad[0].time_s = 1.0;
  bad[1].time_s = 2.0;
  bad[1].type = ChurnEventType::kLeave;
  bad[1].join_of = 5;
  EXPECT_THROW(ChurnSchedule::FromTrace(bad), util::Error);
}

// --- Resumable application -------------------------------------------------

TEST(ChurnDriver, ChunkedApplicationEqualsStraightThrough) {
  const auto world = SmallClusteredWorld(3);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = SmallSchedule();

  const auto run = [&](const std::vector<double>& checkpoints) {
    util::Rng rng(12);
    OverlaySplit split = SplitOverlay(space.size(), 80, rng);
    meridian::MeridianOverlay algo(SmallMeridian());
    algo.Build(space, split.members, rng);
    ChurnDriver driver(&algo, split.members, split.targets, 99);
    ChurnStats total;
    for (const double t : checkpoints) {
      total += driver.ApplyUntil(schedule, t);
    }
    total += driver.ApplyAll(schedule);

    // Fingerprint overlay state through queries, not just membership.
    std::vector<NodeId> found;
    const MeteredSpace metered(space);
    for (int q = 0; q < 20; ++q) {
      util::Rng qrng(1000 + static_cast<std::uint64_t>(q));
      const NodeId target =
          driver.pool()[qrng.Index(driver.pool().size())];
      found.push_back(algo.FindNearest(target, metered, qrng).found);
    }
    return std::make_tuple(driver.members(), driver.pool(), total.joins,
                           total.leaves, found, metered.probes());
  };

  const auto straight = run({});
  const auto chunked = run({10.0, 20.0, 45.0, 70.0});
  const auto fine = run({5.0, 10.0, 15.0, 20.0, 25.0, 50.0, 88.0});
  EXPECT_EQ(straight, chunked);
  EXPECT_EQ(straight, fine);
}

TEST(ChurnDriver, TracksMembershipAndRespectsFloors) {
  const auto world = SmallClusteredWorld(8);
  const MatrixSpace space(world.matrix);
  // Leave-only trace longer than the membership: the floor must hold.
  std::vector<ChurnEvent> events(10);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].time_s = static_cast<double>(i);
    events[i].type = ChurnEventType::kLeave;
  }
  const ChurnSchedule schedule = ChurnSchedule::FromTrace(events);
  std::vector<NodeId> members = {0, 1, 2, 3};
  std::vector<NodeId> pool = {4, 5};
  ChurnDriver driver(nullptr, members, pool, 1);
  const ChurnStats stats = driver.ApplyAll(schedule);
  EXPECT_EQ(driver.members().size(), 2u);
  EXPECT_EQ(stats.leaves, 2);
  EXPECT_EQ(stats.skipped, 8);
  // Leavers rejoin the target pool.
  EXPECT_EQ(driver.pool().size(), 4u);
}

// --- Scenario engine -------------------------------------------------------

TEST(Scenario, MetricsAndProbeCountsAreThreadCountInvariant) {
  const auto world = SmallClusteredWorld(1);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = SmallSchedule();

  std::vector<ScenarioReport> reports;
  for (const int threads : {1, 2, 8}) {
    meridian::MeridianOverlay algo(SmallMeridian());
    reports.push_back(RunScenario(space, &world.layout, algo, schedule,
                                  SmallScenario(threads)));
  }
  ExpectEpochsIdentical(reports[0], reports[1]);
  ExpectEpochsIdentical(reports[0], reports[2]);
}

TEST(Scenario, IncrementalAlgorithmChargesPerEventMaintenance) {
  const auto world = SmallClusteredWorld(2);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = SmallSchedule();
  meridian::MeridianOverlay algo(SmallMeridian());
  const ScenarioReport report =
      RunScenario(space, &world.layout, algo, schedule, SmallScenario(1));

  ASSERT_EQ(report.epochs.size(), 3u);
  EXPECT_GT(report.build_messages, 0u);
  EXPECT_EQ(report.totals.build_probes, report.build_messages);
  EXPECT_EQ(report.totals.queries, 3u * 60u);
  EXPECT_GT(report.totals.query_probes, 0u);
  EXPECT_GT(report.totals.maintenance_probes, 0u);
  EXPECT_GT(report.messages_per_query, 0.0);
  EXPECT_GT(report.maintenance_per_event, 0.0);
  int events = 0;
  std::uint64_t maintenance = 0;
  for (const EpochReport& er : report.epochs) {
    EXPECT_FALSE(er.rebuilt);  // meridian churns incrementally
    EXPECT_GT(er.messages_per_query, 0.0);
    events += er.joins + er.leaves;
    maintenance += er.maintenance_messages;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(events), report.totals.churn_events);
  EXPECT_EQ(maintenance, report.totals.maintenance_probes);
  // Live membership must be reflected per epoch.
  EXPECT_EQ(report.final_members, report.epochs.back().live_members);
}

TEST(Scenario, StaticAlgorithmPaysEpochRebuilds) {
  const auto world = SmallClusteredWorld(4);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = SmallSchedule();
  // Tiers repairs incrementally by default now; the rebuild cost model
  // stays available behind the config flag and keeps this path tested.
  algos::TiersConfig tconfig;
  tconfig.incremental = false;
  algos::TiersNearest algo{tconfig};
  ASSERT_FALSE(algo.SupportsChurn());
  const ScenarioReport report =
      RunScenario(space, &world.layout, algo, schedule, SmallScenario(1));

  bool any_rebuild = false;
  for (const EpochReport& er : report.epochs) {
    if (er.joins + er.leaves > 0) {
      EXPECT_TRUE(er.rebuilt);
      EXPECT_GT(er.maintenance_messages, 0u);
      any_rebuild = true;
    }
  }
  EXPECT_TRUE(any_rebuild);
  EXPECT_GT(report.maintenance_per_event, 0.0);
}

TEST(Scenario, ExcessLatencyPercentilesTrackTailQuality) {
  const auto world = SmallClusteredWorld(9);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = SmallSchedule();

  // Oracle answers every query exactly: all percentiles collapse to 0.
  OracleNearest oracle;
  const ScenarioReport perfect =
      RunScenario(space, &world.layout, oracle, schedule, SmallScenario(1));
  for (const EpochReport& er : perfect.epochs) {
    EXPECT_EQ(er.excess_latency_p50_ms, 0.0);
    EXPECT_EQ(er.excess_latency_p95_ms, 0.0);
    EXPECT_EQ(er.excess_latency_p99_ms, 0.0);
  }

  // Random misses almost always; the percentiles must be ordered and
  // expose a tail the mean alone would hide.
  RandomNearest random_algo;
  const ScenarioReport noisy = RunScenario(space, &world.layout, random_algo,
                                           schedule, SmallScenario(1));
  bool any_tail = false;
  for (const EpochReport& er : noisy.epochs) {
    EXPECT_GE(er.excess_latency_p50_ms, 0.0);
    EXPECT_LE(er.excess_latency_p50_ms, er.excess_latency_p95_ms);
    EXPECT_LE(er.excess_latency_p95_ms, er.excess_latency_p99_ms);
    any_tail = any_tail || er.excess_latency_p99_ms > 0.0;
  }
  EXPECT_TRUE(any_tail);
}

TEST(Scenario, ProbeCounterIsDetachedAfterTheRun) {
  const auto world = SmallClusteredWorld(6);
  const MatrixSpace space(world.matrix);
  meridian::MeridianOverlay algo(SmallMeridian());
  RunScenario(space, &world.layout, algo, SmallSchedule(),
              SmallScenario(1));
  EXPECT_EQ(algo.probe_counter(), nullptr);
}

}  // namespace
}  // namespace np::core
