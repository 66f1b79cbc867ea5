// EmbeddedSpace: determinism, symmetry, tunable triangle violations,
// the pruned ClosestOf kernel (bit-identical to the generic per-pair
// scan, and still billed per pair through MeteredSpace), and the
// equivalence suite — a materialized LatencyMatrix built from the
// space's own latencies and the implicit backend must produce
// bit-identical experiment metrics at small n, for every thread count.
#include "matrix/embedded_space.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algos/karger_ruhl.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "util/rng.h"

namespace np::matrix {
namespace {

EmbeddedSpaceConfig SmallConfig() {
  EmbeddedSpaceConfig config;
  config.num_nodes = 120;
  config.dimensions = 3;
  config.side_ms = 100.0;
  config.distortion = 0.2;
  config.seed = 5;
  return config;
}

TEST(EmbeddedSpace, DeterministicSymmetricZeroDiagonal) {
  const EmbeddedSpace a(SmallConfig());
  const EmbeddedSpace b(SmallConfig());
  ASSERT_EQ(a.size(), 120);
  for (NodeId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.Latency(i, i), 0.0);
    for (NodeId j = i + 1; j < a.size(); ++j) {
      const LatencyMs ij = a.Latency(i, j);
      EXPECT_GT(ij, 0.0);
      EXPECT_EQ(ij, a.Latency(j, i));  // bitwise symmetric
      EXPECT_EQ(ij, b.Latency(i, j));  // pure function of the config
      EXPECT_EQ(ij, a.Latency(i, j));  // probe-count independent
    }
  }
}

TEST(EmbeddedSpace, ZeroDistortionIsTheExactL2Metric) {
  EmbeddedSpaceConfig config = SmallConfig();
  config.distortion = 0.0;
  const EmbeddedSpace space(config);
  const auto& coords = space.coordinates();
  const auto dims = static_cast<std::size_t>(config.dimensions);
  for (NodeId i = 0; i < space.size(); i += 7) {
    for (NodeId j = i + 1; j < space.size(); j += 11) {
      double sq = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {
        const double diff = coords[static_cast<std::size_t>(i) * dims + d] -
                            coords[static_cast<std::size_t>(j) * dims + d];
        sq += diff * diff;
      }
      EXPECT_EQ(space.Latency(i, j), std::max(std::sqrt(sq), 1e-6));
    }
  }
}

TEST(EmbeddedSpace, DistortionMakesTriangleViolationsTunable) {
  EmbeddedSpaceConfig config = SmallConfig();
  config.num_nodes = 60;
  config.distortion = 0.0;
  const double metric_violation =
      EmbeddedSpace(config).Materialize().MaxTriangleViolation();
  EXPECT_NEAR(metric_violation, 0.0, 1e-12);

  config.distortion = 0.5;
  const double distorted_violation =
      EmbeddedSpace(config).Materialize().MaxTriangleViolation();
  EXPECT_GT(distorted_violation, 0.05);
}

TEST(EmbeddedSpace, MaterializeIsBitIdentical) {
  const EmbeddedSpace space(SmallConfig());
  const LatencyMatrix dense = space.Materialize();
  ASSERT_EQ(dense.size(), space.size());
  for (NodeId i = 0; i < space.size(); ++i) {
    for (NodeId j = 0; j < space.size(); ++j) {
      EXPECT_EQ(dense.At(i, j), space.Latency(i, j));
    }
  }
}

// --- ClosestOf kernel -------------------------------------------------------

/// Forwards Latency and nothing else, so ClosestOf takes the generic
/// per-pair scan every decorator runs.
class PerPairSpace final : public core::LatencySpace {
 public:
  explicit PerPairSpace(const core::LatencySpace& inner) : inner_(&inner) {}
  NodeId size() const override { return inner_->size(); }
  LatencyMs Latency(NodeId a, NodeId b) const override {
    return inner_->Latency(a, b);
  }

 private:
  const core::LatencySpace* inner_;
};

/// The kernel and the per-pair scan agree on the member and on the
/// latency bits for `target` against `members`.
void ExpectKernelMatchesPerPair(const EmbeddedSpace& space, NodeId target,
                                const std::vector<NodeId>& members) {
  const PerPairSpace generic(space);
  LatencyMs want = -1.0;
  LatencyMs got = -2.0;
  const NodeId expected = generic.ClosestOf(target, members, &want);
  EXPECT_EQ(space.ClosestOf(target, members, &got), expected);
  EXPECT_EQ(got, want);
}

TEST(EmbeddedSpaceClosestOf, MatchesPerPairScanAcrossDistortionAndDimensions) {
  for (const double distortion : {0.0, 0.1, 0.5, 0.9}) {
    for (const int dims : {1, 2, 3, 5}) {
      SCOPED_TRACE(testing::Message() << "distortion " << distortion
                                      << " dims " << dims);
      EmbeddedSpaceConfig config = SmallConfig();
      config.num_nodes = 400;
      config.dimensions = dims;
      config.distortion = distortion;
      const EmbeddedSpace space(config);
      util::Rng rng(static_cast<std::uint64_t>(dims) * 31 +
                    static_cast<std::uint64_t>(distortion * 10.0));
      for (int round = 0; round < 150; ++round) {
        const auto target = static_cast<NodeId>(rng.Index(400));
        // Drawn with replacement, so ids repeat; every other round
        // lists the target itself too.
        std::vector<NodeId> members(1 + rng.Index(90));
        for (NodeId& m : members) {
          m = static_cast<NodeId>(rng.Index(400));
        }
        if (round % 2 == 0) {
          members.insert(members.begin() +
                             static_cast<std::ptrdiff_t>(
                                 rng.Index(members.size() + 1)),
                         target);
        }
        ExpectKernelMatchesPerPair(space, target, members);
      }
    }
  }
}

TEST(EmbeddedSpaceClosestOf, TargetDuplicatesAndEmptyCandidateSets) {
  const EmbeddedSpace space(SmallConfig());
  ExpectKernelMatchesPerPair(space, 7, {7, 7});
  ExpectKernelMatchesPerPair(space, 7, {});
  ExpectKernelMatchesPerPair(space, 7, {3, 3, 7, 9, 9, 3});
  LatencyMs latency = 0.0;
  EXPECT_EQ(space.ClosestOf(7, std::vector<NodeId>{7}, &latency),
            kInvalidNode);
  EXPECT_EQ(latency, kInfiniteLatency);
  EXPECT_EQ(space.ClosestOf(7, std::vector<NodeId>{9, 7, 9}, &latency), 9);
  EXPECT_EQ(latency, space.Latency(9, 7));
}

TEST(EmbeddedSpaceClosestOf, CoincidentPointsTieAtTheFloorTowardLowestId) {
  // A side far below 1e-6 ms puts every point on top of every other:
  // all latencies sit on the 1e-6 floor, the bound equals the best
  // latency rather than exceeding it, and the lowest id must win. A
  // side near the floor mixes floored and unfloored pairs.
  for (const double side : {1e-9, 2e-6}) {
    for (const int dims : {1, 3}) {
      for (const double distortion : {0.0, 0.5}) {
        SCOPED_TRACE(testing::Message() << "side " << side << " dims "
                                        << dims << " distortion "
                                        << distortion);
        EmbeddedSpaceConfig config = SmallConfig();
        config.side_ms = side;
        config.dimensions = dims;
        config.distortion = distortion;
        const EmbeddedSpace space(config);
        std::vector<NodeId> members;
        for (NodeId n = 119; n >= 0; n -= 3) {
          members.push_back(n);
        }
        for (const NodeId target : {0, 2, 5, 119}) {
          ExpectKernelMatchesPerPair(space, target, members);
        }
        if (side < 1e-6) {
          LatencyMs latency = 0.0;
          EXPECT_EQ(space.ClosestOf(119, members, &latency), 2);
          EXPECT_EQ(latency, 1e-6);
        }
      }
    }
  }
}

TEST(EmbeddedSpaceClosestOf, MeteredDecoratorBillsEveryCandidate) {
  // Only the bare backend prunes: through MeteredSpace every candidate
  // other than the target is probed (and billed) once per listing, and
  // the answer is still the kernel's.
  const EmbeddedSpace space(SmallConfig());
  const core::MeteredSpace metered(space);
  const std::vector<NodeId> members = {4, 11, 7, 11, 90, 7, 63};
  LatencyMs billed = 0.0;
  LatencyMs bare = 0.0;
  const NodeId found = metered.ClosestOf(7, members, &billed);
  EXPECT_EQ(metered.probes(), 5u);
  EXPECT_EQ(found, space.ClosestOf(7, members, &bare));
  EXPECT_EQ(billed, bare);
}

// --- Equivalence suite -----------------------------------------------------

TEST(EmbeddedSpaceEquivalence, ExperimentMetricsMatchAcrossBackends) {
  const EmbeddedSpace implicit_space(SmallConfig());
  const LatencyMatrix dense = implicit_space.Materialize();
  const core::MatrixSpace dense_space(dense);

  for (const int threads : {1, 2, 8}) {
    core::ExperimentConfig config;
    config.overlay_size = 90;
    config.num_queries = 120;
    config.num_threads = threads;
    config.measurement_noise_frac = 0.05;  // noise streams must agree too

    core::GenericMetrics by_backend[2];
    const core::LatencySpace* spaces[2] = {&implicit_space, &dense_space};
    for (int s = 0; s < 2; ++s) {
      algos::KargerRuhlNearest algo{algos::KargerRuhlConfig{}};
      util::Rng rng(77);
      by_backend[s] = RunGenericExperiment(*spaces[s], algo, config, rng);
    }
    EXPECT_EQ(by_backend[0].p_exact_closest, by_backend[1].p_exact_closest);
    EXPECT_EQ(by_backend[0].mean_stretch, by_backend[1].mean_stretch);
    EXPECT_EQ(by_backend[0].mean_abs_error_ms,
              by_backend[1].mean_abs_error_ms);
    EXPECT_EQ(by_backend[0].mean_probes, by_backend[1].mean_probes);
    EXPECT_EQ(by_backend[0].mean_hops, by_backend[1].mean_hops);
  }
}

TEST(EmbeddedSpaceEquivalence, ScenarioEngineMatchesAcrossBackends) {
  // The whole dynamic pipeline — OverlaySplit, truth computation,
  // churn driver, epoch metrics — must not care which backend answers
  // Latency(a, b).
  const EmbeddedSpace implicit_space(SmallConfig());
  const LatencyMatrix dense = implicit_space.Materialize();
  const core::MatrixSpace dense_space(dense);

  core::ChurnScheduleConfig churn;
  churn.duration_s = 60.0;
  churn.events_per_s = 1.5;
  churn.join_fraction = 0.6;
  churn.seed = 3;
  const core::ChurnSchedule schedule = core::ChurnSchedule::Poisson(churn);

  for (const int threads : {1, 2, 8}) {
    core::ScenarioConfig config;
    config.initial_overlay = 80;
    config.epochs = 2;
    config.queries_per_epoch = 60;
    config.num_threads = threads;
    config.seed = 13;

    core::ScenarioReport reports[2];
    const core::LatencySpace* spaces[2] = {&implicit_space, &dense_space};
    for (int s = 0; s < 2; ++s) {
      algos::KargerRuhlNearest algo{algos::KargerRuhlConfig{}};
      reports[s] = RunScenario(*spaces[s], nullptr, algo, schedule, config);
    }
    EXPECT_EQ(reports[0].build_messages, reports[1].build_messages);
    EXPECT_EQ(reports[0].final_members, reports[1].final_members);
    ASSERT_EQ(reports[0].epochs.size(), reports[1].epochs.size());
    for (std::size_t e = 0; e < reports[0].epochs.size(); ++e) {
      const core::EpochReport& x = reports[0].epochs[e];
      const core::EpochReport& y = reports[1].epochs[e];
      EXPECT_EQ(x.p_exact_closest, y.p_exact_closest);
      EXPECT_EQ(x.mean_found_latency_ms, y.mean_found_latency_ms);
      EXPECT_EQ(x.excess_latency_p50_ms, y.excess_latency_p50_ms);
      EXPECT_EQ(x.excess_latency_p95_ms, y.excess_latency_p95_ms);
      EXPECT_EQ(x.excess_latency_p99_ms, y.excess_latency_p99_ms);
      EXPECT_EQ(x.messages_per_query, y.messages_per_query);
      EXPECT_EQ(x.maintenance_messages, y.maintenance_messages);
      EXPECT_EQ(x.joins, y.joins);
      EXPECT_EQ(x.leaves, y.leaves);
    }
  }
}

}  // namespace
}  // namespace np::matrix
