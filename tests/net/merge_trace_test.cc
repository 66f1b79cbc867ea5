#include <gtest/gtest.h>

#include <cmath>

#include "core/latency_space.h"
#include "matrix/generators.h"
#include "net/tools.h"

namespace np::net {
namespace {

TracerouteHop MakeHop(RouterId router, bool responded, double rtt) {
  TracerouteHop hop;
  hop.router = router;
  hop.responded = responded;
  if (responded) {
    hop.rtt_ms = rtt;
    hop.annotated_as = 1;
    hop.annotated_city = 2;
  }
  return hop;
}

TEST(MergeTraces, FillsSilentHopsFromSecondTrace) {
  TracerouteResult a;
  a.hops = {MakeHop(10, true, 1.0), MakeHop(11, false, 0.0),
            MakeHop(12, true, 3.0)};
  TracerouteResult b;
  b.hops = {MakeHop(10, false, 0.0), MakeHop(11, true, 2.0),
            MakeHop(12, true, 3.1)};
  const auto merged = MergeTraceroutes(a, b);
  ASSERT_EQ(merged.hops.size(), 3u);
  EXPECT_TRUE(merged.hops[0].responded);
  EXPECT_DOUBLE_EQ(merged.hops[0].rtt_ms, 1.0);  // from a
  EXPECT_TRUE(merged.hops[1].responded);
  EXPECT_DOUBLE_EQ(merged.hops[1].rtt_ms, 2.0);  // filled from b
  EXPECT_DOUBLE_EQ(merged.hops[2].rtt_ms, 3.0);  // a wins when both
}

TEST(MergeTraces, DestinationFilledFromSecond) {
  TracerouteResult a;
  a.hops = {MakeHop(1, true, 1.0)};
  a.dest_responded = false;
  TracerouteResult b;
  b.hops = {MakeHop(1, true, 1.0)};
  b.dest_responded = true;
  b.dest_rtt_ms = 9.0;
  const auto merged = MergeTraceroutes(a, b);
  EXPECT_TRUE(merged.dest_responded);
  EXPECT_DOUBLE_EQ(merged.dest_rtt_ms, 9.0);
}

TEST(MergeTraces, MismatchedPathsThrow) {
  TracerouteResult a;
  a.hops = {MakeHop(1, true, 1.0)};
  TracerouteResult b;
  b.hops = {MakeHop(2, true, 1.0)};
  EXPECT_THROW(MergeTraceroutes(a, b), util::Error);
  TracerouteResult c;
  EXPECT_THROW(MergeTraceroutes(a, c), util::Error);
}

TEST(MergeTraces, MergingRealTracesOnlyAddsHops) {
  util::Rng world_rng(1);
  const auto topology = Topology::Generate(SmallTestConfig(), world_rng);
  Tools tools(topology, util::Rng(2));
  const NodeId v = topology.vantage_hosts()[0];
  const auto dns = topology.HostsOfKind(HostKind::kDnsRecursive);
  int improved = 0;
  for (std::size_t i = 0; i < 40 && i < dns.size(); ++i) {
    const auto t1 = tools.Traceroute(v, dns[i]);
    const auto t2 = tools.Traceroute(v, dns[i]);
    const auto merged = MergeTraceroutes(t1, t2);
    int t1_valid = 0;
    int merged_valid = 0;
    for (std::size_t h = 0; h < merged.hops.size(); ++h) {
      t1_valid += t1.hops[h].responded ? 1 : 0;
      merged_valid += merged.hops[h].responded ? 1 : 0;
      // Merged hop responded whenever t1's did.
      EXPECT_GE(merged.hops[h].responded, t1.hops[h].responded);
    }
    if (merged_valid > t1_valid) {
      ++improved;
    }
  }
  EXPECT_GT(improved, 0);
}

}  // namespace
}  // namespace np::net

namespace np::core {
namespace {

TEST(NoisySpaceTest, ZeroNoisePassesThrough) {
  matrix::LatencyMatrix m(3, 7.0);
  const MatrixSpace inner(m);
  const NoisySpace noisy(inner, 0.0, 1, 0.0);
  for (NodeId a = 0; a < 3; ++a) {
    for (NodeId b = 0; b < 3; ++b) {
      EXPECT_DOUBLE_EQ(noisy.Latency(a, b), inner.Latency(a, b));
    }
  }
}

TEST(NoisySpaceTest, FractionalNoiseScalesWithLatency) {
  matrix::LatencyMatrix m(2, 100.0);
  const MatrixSpace inner(m);
  const NoisySpace noisy(inner, 0.05, 2, 0.0);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = noisy.Latency(0, 1);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double stddev = std::sqrt(sq / n - mean * mean);
  EXPECT_NEAR(mean, 100.0, 0.5);
  EXPECT_NEAR(stddev, 5.0, 0.5);
}

TEST(NoisySpaceTest, FloorNoiseIndependentOfLatency) {
  matrix::LatencyMatrix m(2, 0.1);  // LAN-scale true latency
  const MatrixSpace inner(m);
  const NoisySpace noisy(inner, 0.0, 3, 0.5);
  double min_seen = 1e9;
  double max_seen = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double v = noisy.Latency(0, 1);
    min_seen = std::min(min_seen, v);
    max_seen = std::max(max_seen, v);
    EXPECT_GE(v, 0.001);  // floored at 1 us
  }
  // 0.5 ms sigma on a 0.1 ms latency: the spread dwarfs the signal —
  // exactly why LAN-scale differences are unmeasurable in practice.
  EXPECT_GT(max_seen - min_seen, 1.0);
}

TEST(NoisySpaceTest, SelfLatencyStaysZero) {
  matrix::LatencyMatrix m(2, 5.0);
  const MatrixSpace inner(m);
  const NoisySpace noisy(inner, 0.1, 4, 1.0);
  EXPECT_DOUBLE_EQ(noisy.Latency(1, 1), 0.0);
}

TEST(NoisySpaceTest, JitterIsSymmetricPerProbe) {
  // The k-th probe of {a, b} must not depend on which endpoint asks:
  // two instances with the same seed, one probing (a, b) and the
  // other (b, a), see identical values probe for probe.
  matrix::LatencyMatrix m(4, 20.0);
  const MatrixSpace inner(m);
  const NoisySpace forward(inner, 0.1, 42, 0.5);
  const NoisySpace reverse(inner, 0.1, 42, 0.5);
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(forward.Latency(1, 3), reverse.Latency(3, 1));
  }
}

TEST(NoisySpaceTest, JitterIsProbeOrderRobust) {
  // Reordering probes across pairs (what any probe-reordering
  // algorithm refactor does) must not shift a single measured value.
  matrix::LatencyMatrix m(5, 20.0);
  const MatrixSpace inner(m);
  const NoisySpace ab_first(inner, 0.1, 7, 0.0);
  const double ab_0 = ab_first.Latency(0, 1);
  const double cd_0 = ab_first.Latency(2, 3);
  const double ab_1 = ab_first.Latency(0, 1);

  const NoisySpace cd_first(inner, 0.1, 7, 0.0);
  EXPECT_EQ(cd_first.Latency(2, 3), cd_0);
  EXPECT_EQ(cd_first.Latency(0, 1), ab_0);
  EXPECT_EQ(cd_first.Latency(0, 1), ab_1);
}

TEST(NoisySpaceTest, ReprobingTheSamePairSeesFreshNoise) {
  matrix::LatencyMatrix m(2, 50.0);
  const MatrixSpace inner(m);
  const NoisySpace noisy(inner, 0.2, 9, 0.0);
  const double first = noisy.Latency(0, 1);
  const double second = noisy.Latency(0, 1);
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace np::core
