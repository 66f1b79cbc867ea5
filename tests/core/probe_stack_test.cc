// ProbeStack against the hand-built decorator chain it replaced.
//
// The one structural change the stack makes is dropping the partition
// layer when the schedule configures nothing; that is only sound if an
// empty-schedule PartitionedSpace forwards every probe verbatim. These
// tests pin it with noise, loss and a crashed set all on, value for
// value (NaN for NaN) and probe for probe; and they pin that a
// reseeded stack probes exactly as a fresh one.
#include "core/probe_stack.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <unordered_set>

#include "core/latency_space.h"
#include "matrix/faulty_space.h"
#include "matrix/latency_matrix.h"
#include "matrix/partitioned_space.h"
#include "util/rng.h"

namespace np::core {
namespace {

constexpr NodeId kNodes = 12;

matrix::LatencyMatrix RandomMatrix(std::uint64_t seed) {
  matrix::LatencyMatrix m(kNodes);
  util::Rng rng(seed);
  for (NodeId a = 0; a < kNodes; ++a) {
    for (NodeId b = a + 1; b < kNodes; ++b) {
      m.Set(a, b, 1.0 + 99.0 * rng.NextDouble());
    }
  }
  return m;
}

/// Probes every ordered pair (a == b included) twice through both
/// views — the second pass re-probes each pair, which moves the
/// per-pair noise and loss counters — and expects identical answers.
void ExpectSameProbes(const MeteredSpace& got, const MeteredSpace& want) {
  int lost = 0;
  int answered = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (NodeId a = 0; a < kNodes; ++a) {
      for (NodeId b = 0; b < kNodes; ++b) {
        SCOPED_TRACE(::testing::Message() << "pass " << pass << " pair (" << a
                                          << ", " << b << ")");
        const LatencyMs g = got.Latency(a, b);
        const LatencyMs w = want.Latency(a, b);
        if (std::isnan(w)) {
          EXPECT_TRUE(std::isnan(g));
          ++lost;
        } else {
          EXPECT_EQ(g, w);
          ++answered;
        }
      }
    }
  }
  EXPECT_EQ(got.probes(), want.probes());
  // Both outcomes were exercised, or the comparison proves little.
  EXPECT_GT(lost, 0);
  EXPECT_GT(answered, 0);
}

TEST(ProbeStack, EmptyScheduleMatchesTheFourLayerChain) {
  const matrix::LatencyMatrix m = RandomMatrix(1);
  const MatrixSpace space(m);
  const std::unordered_set<NodeId> crashed = {3, 7};
  const matrix::PartitionSchedule empty;
  const ProbeFaults faults{0.1, 0.5, 0.3, &empty};
  const ProbeSeeds seeds{11, 12, 13};

  ProbeStack stack(space, faults, seeds, &crashed);
  EXPECT_EQ(stack.partition(), nullptr);

  const NoisySpace noisy(space, faults.noise_frac, seeds.noise,
                         faults.noise_floor_ms);
  const matrix::PartitionedSpace partitioned(noisy, empty, seeds.partition);
  const matrix::FaultySpace faulty(partitioned, faults.loss_rate, seeds.fault,
                                   &crashed);
  const MeteredSpace chain(faulty);
  ExpectSameProbes(stack.metered(), chain);
}

TEST(ProbeStack, NonEmptyScheduleKeepsThePartitionLayer) {
  const matrix::LatencyMatrix m = RandomMatrix(2);
  const MatrixSpace space(m);
  const std::unordered_set<NodeId> crashed = {5};
  matrix::PartitionSchedule grey;
  grey.grey_node_frac = 0.5;
  grey.grey_loss_rate = 0.5;
  grey.grey_seed = 21;
  const ProbeFaults faults{0.1, 0.0, 0.2, &grey};
  const ProbeSeeds seeds{31, 32, 33};

  // The crashed set arrives late, the way the engines attach it.
  ProbeStack stack(space, faults, seeds);
  stack.set_crashed(&crashed);
  ASSERT_NE(stack.partition(), nullptr);

  const NoisySpace noisy(space, faults.noise_frac, seeds.noise);
  const matrix::PartitionedSpace partitioned(noisy, grey, seeds.partition);
  const matrix::FaultySpace faulty(partitioned, faults.loss_rate, seeds.fault,
                                   &crashed);
  const MeteredSpace chain(faulty);
  ExpectSameProbes(stack.metered(), chain);
}

// A query worker reseeds one stack per query instead of building one.
// After thousands of probes under other seeds, with every stateful
// layer and every pathology on, a reseeded stack must answer and bill
// exactly as a fresh one.
TEST(ProbeStack, ReseedMatchesAFreshStack) {
  const matrix::LatencyMatrix m = RandomMatrix(4);
  const MatrixSpace space(m);
  const std::unordered_set<NodeId> crashed = {2, 9};
  matrix::PartitionSchedule schedule;
  schedule.grey_node_frac = 0.4;
  schedule.grey_loss_rate = 0.5;
  schedule.grey_seed = 41;
  schedule.asymmetric_frac = 0.2;
  schedule.asym_seed = 42;
  matrix::PartitionWindow window;
  window.start_epoch = 1;
  window.end_epoch = 3;
  window.component.assign(kNodes, 0);
  for (NodeId n = 8; n < kNodes; ++n) {
    window.component[static_cast<std::size_t>(n)] = 1;
  }
  schedule.windows.push_back(window);
  const ProbeFaults faults{0.1, 0.5, 0.3, &schedule};
  const ProbeSeeds seeds{51, 52, 53};

  ProbeStack reused(space, faults, ProbeSeeds{61, 62, 63}, &crashed);
  ASSERT_NE(reused.partition(), nullptr);
  reused.partition()->set_epoch(2);
  ASSERT_NE(reused.partition()->active_window(), nullptr);
  for (std::uint64_t round = 0; round < 20; ++round) {
    reused.Reseed(ProbeSeeds{70 + round, 80 + round, 90 + round});
    for (int pass = 0; pass < 2; ++pass) {
      for (NodeId a = 0; a < kNodes; ++a) {
        for (NodeId b = 0; b < kNodes; ++b) {
          reused.metered().Latency(a, b);
        }
      }
    }
  }
  EXPECT_GT(reused.metered().probes(), 0u);
  reused.Reseed(seeds);
  EXPECT_EQ(reused.metered().probes(), 0u);

  ProbeStack fresh(space, faults, seeds, &crashed);
  fresh.partition()->set_epoch(2);
  ExpectSameProbes(reused.metered(), fresh.metered());
}

TEST(ProbeStack, DefaultFaultsForwardTheBackend) {
  const matrix::LatencyMatrix m = RandomMatrix(3);
  const MatrixSpace space(m);
  const ProbeStack stack(space, ProbeFaults{}, ProbeSeeds{});
  for (NodeId a = 0; a < kNodes; ++a) {
    for (NodeId b = 0; b < kNodes; ++b) {
      EXPECT_EQ(stack.metered().Latency(a, b), space.Latency(a, b));
    }
  }
  EXPECT_EQ(stack.metered().probes(),
            static_cast<std::uint64_t>(kNodes * kNodes));
}

}  // namespace
}  // namespace np::core
