// Heavy-tailed session models and diurnal arrival modulation: the
// generated schedules must match the configured distributions
// (medians, supports, tails, mean rates), compose cleanly, preserve
// the chunked == straight-through application invariant, and let
// Tiers' incremental repair beat its rebuild-per-epoch cost model at
// accuracy parity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "algos/tiers.h"
#include "core/churn.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "matrix/generators.h"
#include "meridian/meridian.h"

namespace np::core {
namespace {

/// Session length per join ordinal: the leave time minus the join
/// time, or +inf for sessions censored by the horizon (the node
/// outlives the schedule). Indexed in join order.
std::vector<double> SessionLengths(const ChurnSchedule& schedule) {
  std::vector<double> joins_at;
  std::vector<std::size_t> event_to_join(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ChurnEvent& event = schedule.events()[i];
    if (event.type == ChurnEventType::kJoin) {
      event_to_join[i] = joins_at.size();
      joins_at.push_back(event.time_s);
    }
  }
  std::vector<double> sessions(joins_at.size(),
                               std::numeric_limits<double>::infinity());
  for (const ChurnEvent& event : schedule.events()) {
    if (event.type == ChurnEventType::kLeave) {
      EXPECT_GE(event.join_of, 0);
      const std::size_t ordinal =
          event_to_join[static_cast<std::size_t>(event.join_of)];
      sessions[ordinal] = event.time_s - joins_at[ordinal];
    }
  }
  return sessions;
}

double Median(std::vector<double> values) {
  EXPECT_FALSE(values.empty());
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

/// Fraction-of-day position of an event.
double DayFraction(double time_s, double day_s) {
  const double cycles = time_s / day_s;
  return cycles - std::floor(cycles);
}

ChurnScheduleConfig SessionBase(SessionModel model) {
  ChurnScheduleConfig config;
  config.duration_s = 20000.0;
  config.events_per_s = 0.5;
  config.mean_session_s = 10.0;
  config.session_model = model;
  config.seed = 71;
  return config;
}

// --- Session-length distributions ------------------------------------------

TEST(ChurnModels, LognormalSessionsMatchTheConfiguredMedian) {
  ChurnScheduleConfig config = SessionBase(SessionModel::kLogNormal);
  config.lognormal_sigma = 1.2;
  const ChurnSchedule schedule = ChurnSchedule::Poisson(config);
  const std::vector<double> sessions = SessionLengths(schedule);
  ASSERT_GT(sessions.size(), 5000u);
  // Median of exp(N(mu, sigma)) is exp(mu) = mean * exp(-sigma^2/2);
  // the horizon censors only the far tail, so the median is clean.
  const double expected_median =
      config.mean_session_s *
      std::exp(-0.5 * config.lognormal_sigma * config.lognormal_sigma);
  EXPECT_NEAR(Median(sessions), expected_median, 0.15 * expected_median);
}

TEST(ChurnModels, ParetoSessionsMatchScaleAndMedian) {
  ChurnScheduleConfig config = SessionBase(SessionModel::kPareto);
  config.pareto_alpha = 2.0;
  const ChurnSchedule schedule = ChurnSchedule::Poisson(config);
  const std::vector<double> sessions = SessionLengths(schedule);
  ASSERT_GT(sessions.size(), 5000u);
  // x_m = mean * (alpha - 1) / alpha is the distribution's minimum.
  const double scale = config.mean_session_s *
                       (config.pareto_alpha - 1.0) / config.pareto_alpha;
  for (const double s : sessions) {
    EXPECT_GE(s, scale - 1e-9);
  }
  const double expected_median =
      scale * std::pow(2.0, 1.0 / config.pareto_alpha);
  EXPECT_NEAR(Median(sessions), expected_median, 0.15 * expected_median);
}

TEST(ChurnModels, HeavyTailsOutliveExponentialAtTheSameMean) {
  // Same mean for all three models; count sessions exceeding 10x it,
  // where the heavy tails dominate decisively: ~1% of lognormal(1.5)
  // and ~0.6% of Pareto(1.5) sessions vs e^-10 ~ 5e-5 exponentially.
  const auto tail_count = [](SessionModel model, double shape) {
    ChurnScheduleConfig config = SessionBase(model);
    config.lognormal_sigma = shape;
    config.pareto_alpha = shape;
    const ChurnSchedule schedule = ChurnSchedule::Poisson(config);
    int count = 0;
    for (const double s : SessionLengths(schedule)) {
      count += s > 10.0 * config.mean_session_s ? 1 : 0;
    }
    return count;
  };
  const int exponential = tail_count(SessionModel::kExponential, 0.0);
  const int lognormal = tail_count(SessionModel::kLogNormal, 1.5);
  const int pareto = tail_count(SessionModel::kPareto, 1.5);
  EXPECT_GT(lognormal, 5 * (exponential + 1));
  EXPECT_GT(pareto, 5 * (exponential + 1));
}

TEST(ChurnModels, InvalidShapeParametersThrow) {
  ChurnScheduleConfig config = SessionBase(SessionModel::kPareto);
  config.pareto_alpha = 1.0;  // infinite mean
  EXPECT_THROW(ChurnSchedule::Poisson(config), util::Error);
  config = SessionBase(SessionModel::kLogNormal);
  config.lognormal_sigma = 0.0;
  EXPECT_THROW(ChurnSchedule::Poisson(config), util::Error);
  config = SessionBase(SessionModel::kExponential);
  config.diurnal.day_s = 100.0;
  config.diurnal.amplitude = 1.5;  // rate would go negative
  EXPECT_THROW(ChurnSchedule::Poisson(config), util::Error);
}

// --- Diurnal modulation ----------------------------------------------------

TEST(ChurnModels, DiurnalSinusoidIntegratesToTheConfiguredMean) {
  ChurnScheduleConfig config;
  config.duration_s = 6000.0;  // ten whole days
  config.events_per_s = 1.0;
  config.join_fraction = 0.5;
  config.diurnal.day_s = 600.0;
  config.diurnal.amplitude = 1.0;
  config.diurnal.peak_frac = 0.25;
  config.seed = 5;
  const ChurnSchedule schedule = ChurnSchedule::Poisson(config);
  // Over whole days the sinusoid integrates out: expect
  // duration * events_per_s arrivals (Poisson noise ~ sqrt(6000)).
  const double expected = config.duration_s * config.events_per_s;
  EXPECT_NEAR(static_cast<double>(schedule.size()), expected,
              0.05 * expected);
  // The modulation must actually be there: the peak-centered half-day
  // carries ~82% of the mass (integral of 1 + cos over a half period),
  // vs 18% for the trough half.
  int peak_half = 0;
  for (const ChurnEvent& event : schedule.events()) {
    const double frac = DayFraction(event.time_s, config.diurnal.day_s);
    peak_half += frac < 0.5 ? 1 : 0;
  }
  const int trough_half = static_cast<int>(schedule.size()) - peak_half;
  EXPECT_GT(peak_half, 3 * trough_half);
}

TEST(ChurnModels, DiurnalComposesWithSessionModels) {
  ChurnScheduleConfig config = SessionBase(SessionModel::kPareto);
  config.pareto_alpha = 1.8;
  config.duration_s = 6000.0;
  config.diurnal.day_s = 600.0;
  config.diurnal.amplitude = 0.9;
  const ChurnSchedule schedule = ChurnSchedule::Poisson(config);
  ASSERT_GT(schedule.size(), 0u);
  // Leaves still pair with earlier joins under thinning.
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ChurnEvent& event = schedule.events()[i];
    if (event.type == ChurnEventType::kLeave) {
      ASSERT_GE(event.join_of, 0);
      ASSERT_LT(static_cast<std::size_t>(event.join_of), i);
      const ChurnEvent& join =
          schedule.events()[static_cast<std::size_t>(event.join_of)];
      EXPECT_EQ(join.type, ChurnEventType::kJoin);
      EXPECT_LT(join.time_s, event.time_s);
    }
    if (i > 0) {
      EXPECT_GE(event.time_s, schedule.events()[i - 1].time_s);
    }
  }
  // Arrivals (not leaves, which lag by session lengths) follow the
  // wave: the peak half-day must dominate.
  int peak = 0;
  int total = 0;
  for (const ChurnEvent& event : schedule.events()) {
    if (event.type != ChurnEventType::kJoin) {
      continue;
    }
    const double frac = DayFraction(event.time_s, config.diurnal.day_s);
    peak += std::abs(frac - config.diurnal.peak_frac) < 0.25 ||
                    std::abs(frac - config.diurnal.peak_frac) > 0.75
                ? 1
                : 0;
    ++total;
  }
  EXPECT_GT(peak, (total - peak) * 2);
}

TEST(ChurnModels, GenerationIsDeterministic) {
  ChurnScheduleConfig config = SessionBase(SessionModel::kLogNormal);
  config.diurnal.day_s = 500.0;
  config.diurnal.amplitude = 0.7;
  const ChurnSchedule a = ChurnSchedule::Poisson(config);
  const ChurnSchedule b = ChurnSchedule::Poisson(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].time_s, b.events()[i].time_s);
    EXPECT_EQ(a.events()[i].type, b.events()[i].type);
    EXPECT_EQ(a.events()[i].join_of, b.events()[i].join_of);
  }
}

// --- Chunked == straight-through under the new models ----------------------

matrix::ClusteredWorld SmallClusteredWorld(std::uint64_t seed) {
  matrix::ClusteredConfig config;
  config.num_clusters = 4;
  config.nets_per_cluster = 15;
  config.peers_per_net = 2;
  config.delta = 0.6;
  util::Rng rng(seed);
  return matrix::GenerateClustered(config, rng);
}

ChurnSchedule HeavyDiurnalSchedule(std::uint64_t seed) {
  ChurnScheduleConfig config;
  config.duration_s = 120.0;
  config.events_per_s = 1.0;
  config.mean_session_s = 40.0;
  config.session_model = SessionModel::kPareto;
  config.pareto_alpha = 1.7;
  config.diurnal.day_s = 60.0;
  config.diurnal.amplitude = 0.8;
  config.seed = seed;
  return ChurnSchedule::Poisson(config);
}

TEST(ChurnModels, ChunkedApplicationEqualsStraightThrough) {
  const auto world = SmallClusteredWorld(3);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = HeavyDiurnalSchedule(31);

  const auto run = [&](const std::vector<double>& checkpoints) {
    util::Rng rng(12);
    OverlaySplit split = SplitOverlay(space.size(), 80, rng);
    meridian::MeridianConfig mconfig;
    mconfig.ring_size = 4;
    mconfig.gossip_bootstrap_contacts = 3;
    meridian::MeridianOverlay algo(mconfig);
    algo.Build(space, split.members, rng);
    ChurnDriver driver(&algo, split.members, split.targets, 99);
    ChurnStats total;
    for (const double t : checkpoints) {
      total += driver.ApplyUntil(schedule, t);
    }
    total += driver.ApplyAll(schedule);

    std::vector<NodeId> found;
    const MeteredSpace metered(space);
    for (int q = 0; q < 20; ++q) {
      util::Rng qrng(1000 + static_cast<std::uint64_t>(q));
      const NodeId target = driver.pool()[qrng.Index(driver.pool().size())];
      found.push_back(algo.FindNearest(target, metered, qrng).found);
    }
    return std::make_tuple(driver.members(), driver.pool(), total.joins,
                           total.leaves, found, metered.probes());
  };

  const auto straight = run({});
  const auto chunked = run({15.0, 40.0, 70.0, 100.0});
  EXPECT_EQ(straight, chunked);
}

TEST(ChurnModels, ScenarioMetricsThreadCountInvariantUnderNewModels) {
  const auto world = SmallClusteredWorld(9);
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = HeavyDiurnalSchedule(77);
  ScenarioConfig config;
  config.initial_overlay = 80;
  config.epochs = 3;
  config.queries_per_epoch = 60;
  config.seed = 123;

  std::vector<ScenarioReport> reports;
  for (const int threads : {1, 8}) {
    config.num_threads = threads;
    algos::TiersNearest algo{algos::TiersConfig{}};
    reports.push_back(
        RunScenario(space, &world.layout, algo, schedule, config));
  }
  ASSERT_EQ(reports[0].epochs.size(), reports[1].epochs.size());
  EXPECT_EQ(reports[0].totals.query_probes, reports[1].totals.query_probes);
  EXPECT_EQ(reports[0].totals.maintenance_probes,
            reports[1].totals.maintenance_probes);
  for (std::size_t e = 0; e < reports[0].epochs.size(); ++e) {
    EXPECT_EQ(reports[0].epochs[e].p_exact_closest,
              reports[1].epochs[e].p_exact_closest);
    EXPECT_EQ(reports[0].epochs[e].maintenance_messages,
              reports[1].epochs[e].maintenance_messages);
  }
}

// --- Tiers: incremental repair vs rebuild-per-epoch ------------------------

TEST(ChurnModels, TiersIncrementalBeatsRebuildBillingAtAccuracyParity) {
  const auto world = SmallClusteredWorld(4);
  const MatrixSpace space(world.matrix);
  ChurnScheduleConfig cconfig;
  cconfig.duration_s = 120.0;
  cconfig.events_per_s = 1.5;
  cconfig.mean_session_s = 50.0;
  cconfig.session_model = SessionModel::kPareto;
  cconfig.pareto_alpha = 1.7;
  cconfig.seed = 8;
  const ChurnSchedule schedule = ChurnSchedule::Poisson(cconfig);

  ScenarioConfig config;
  config.initial_overlay = 80;
  config.epochs = 3;
  config.queries_per_epoch = 100;
  config.num_threads = 1;
  config.seed = 77;

  algos::TiersConfig incremental_config;
  ASSERT_TRUE(incremental_config.incremental);
  algos::TiersNearest incremental{incremental_config};
  ASSERT_TRUE(incremental.SupportsChurn());
  const ScenarioReport repaired =
      RunScenario(space, &world.layout, incremental, schedule, config);

  algos::TiersConfig rebuild_config;
  rebuild_config.incremental = false;
  algos::TiersNearest rebuild{rebuild_config};
  ASSERT_FALSE(rebuild.SupportsChurn());
  const ScenarioReport rebuilt =
      RunScenario(space, &world.layout, rebuild, schedule, config);

  // Identical schedule applied: same churn totals.
  EXPECT_EQ(repaired.totals.churn_events, rebuilt.totals.churn_events);
  ASSERT_GT(repaired.totals.churn_events, 0u);

  // The repair bill must be strictly below the rebuild bill — that is
  // the point of incremental Tiers.
  EXPECT_GT(rebuilt.maintenance_per_event, 0.0);
  EXPECT_LT(repaired.maintenance_per_event,
            0.5 * rebuilt.maintenance_per_event);
  for (const EpochReport& er : repaired.epochs) {
    EXPECT_FALSE(er.rebuilt);
  }
  bool any_rebuild = false;
  for (const EpochReport& er : rebuilt.epochs) {
    any_rebuild |= er.rebuilt;
  }
  EXPECT_TRUE(any_rebuild);

  // Accuracy parity: the repaired hierarchy drifts, but must stay in
  // the rebuilt hierarchy's band.
  double repaired_accuracy = 0.0;
  double rebuilt_accuracy = 0.0;
  for (std::size_t e = 0; e < repaired.epochs.size(); ++e) {
    repaired_accuracy += repaired.epochs[e].p_exact_closest;
    rebuilt_accuracy += rebuilt.epochs[e].p_exact_closest;
  }
  repaired_accuracy /= static_cast<double>(repaired.epochs.size());
  rebuilt_accuracy /= static_cast<double>(rebuilt.epochs.size());
  EXPECT_GE(repaired_accuracy, rebuilt_accuracy - 0.15);
}

}  // namespace
}  // namespace np::core
