#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

namespace np::util {
namespace {

TEST(ResolveThreadCountFn, ZeroMeansHardware) {
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(7), 7);
  EXPECT_THROW(ResolveThreadCount(-1), Error);
}

TEST(ParallelForFn, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 3, 8}) {
    std::vector<int> hits(1000, 0);
    ParallelFor(0, hits.size(), threads,
                [&](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
    EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  }
}

TEST(ParallelForFn, HandlesEmptyAndOffsetRanges) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  std::vector<int> hits(10, 0);
  ParallelFor(3, 7, 4, [&](std::size_t i) { hits[i] += 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], i >= 3 && i < 7 ? 1 : 0) << i;
  }
}

TEST(ParallelForFn, MoreThreadsThanWorkIsFine) {
  std::vector<int> hits(3, 0);
  ParallelFor(0, hits.size(), 16, [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(DeterministicSumFn, SumsSlotsInIndexOrder) {
  EXPECT_EQ(DeterministicSum({}), 0.0);
  // Bit-exact serial left fold: (0.1 + 0.2) + 0.3, not any reassociation.
  const std::vector<double> slots{0.1, 0.2, 0.3};
  EXPECT_EQ(DeterministicSum(slots), (0.1 + 0.2) + 0.3);
}

TEST(ParallelForFn, PropagatesWorkerExceptions) {
  for (const int threads : {1, 4}) {
    EXPECT_THROW(
        ParallelFor(0, 100, threads,
                    [&](std::size_t i) {
                      if (i == 57) {
                        throw Error("boom");
                      }
                    }),
        Error);
  }
}

}  // namespace
}  // namespace np::util
