// util::PairStream: the per-pair draw formula, symmetry, and the
// kMaxTrackedPairs generation flush that NoisySpace, FaultySpace and
// PartitionedSpace share.
#include "util/pair_stream.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace np::util {
namespace {

std::uint64_t Expected(std::uint64_t seed, std::int64_t a, std::int64_t b,
                       std::uint64_t count) {
  return Mix64(Mix64(seed ^ PairKey(a, b)) ^ count);
}

TEST(PairStream, KthProbeOfAPairIsAPureFunctionOfSeedPairAndCount) {
  PairStream stream(42);
  EXPECT_EQ(stream.Next(3, 9), Expected(42, 3, 9, 0));
  EXPECT_EQ(stream.Next(9, 3), Expected(42, 3, 9, 1));  // symmetric
  EXPECT_EQ(stream.Next(1, 2), Expected(42, 1, 2, 0));  // own counter
  EXPECT_EQ(stream.Next(3, 9), Expected(42, 3, 9, 2));
  EXPECT_EQ(stream.tracked_pairs(), 2u);
  EXPECT_EQ(stream.seed(), 42u);
}

TEST(PairStream, CrossingTheBoundFlushesAndRemixesTheSeed) {
  constexpr std::uint64_t kSeed = 7;
  PairStream stream(kSeed);
  // Fill the tracker with exactly kMaxTrackedPairs distinct pairs
  // {0, 1}, {0, 2}, ...: no flush yet.
  for (std::size_t i = 1; i <= PairStream::kMaxTrackedPairs; ++i) {
    stream.Next(0, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(stream.tracked_pairs(), PairStream::kMaxTrackedPairs);
  EXPECT_EQ(stream.seed(), kSeed);

  // The next probe finds the tracker full — even one of a tracked
  // pair: counts are cleared and the seed becomes Mix64(seed), so
  // {0, 1} restarts at count 0 under the new seed.
  const std::uint64_t next_seed = Mix64(kSeed);
  EXPECT_EQ(stream.Next(0, 1), Expected(next_seed, 0, 1, 0));
  EXPECT_EQ(stream.seed(), next_seed);
  EXPECT_EQ(stream.tracked_pairs(), 1u);
  EXPECT_EQ(stream.Next(1, 0), Expected(next_seed, 0, 1, 1));
}

// The tracker is a flat table; a std::unordered_map stepped through the
// same probes, with the same flush rule, must see every draw and every
// tracked-pair count the stream reports.
TEST(PairStream, MatchesAnUnorderedMapReferenceAcrossGrowth) {
  constexpr std::uint64_t kSeed = 20260;
  constexpr int kCalls = 300'000;
  constexpr std::int64_t kMaxId = 0x7fffffff;  // largest NodeId
  Rng rng(kSeed);
  // 40,000 pairs: ids from a small range (shared endpoints, many
  // distinct pairs per id) and from the whole NodeId range, plus the
  // extremes 0 and kMaxId.
  std::vector<std::pair<std::int64_t, std::int64_t>> pool = {
      {0, kMaxId}, {kMaxId - 1, kMaxId}, {0, 1}};
  while (pool.size() < 40'000) {
    const bool wide = rng.NextUint64(4) == 0;
    const std::int64_t a = wide ? rng.UniformInt(0, kMaxId)
                                : rng.UniformInt(0, 3000);
    const std::int64_t b = wide ? rng.UniformInt(0, kMaxId)
                                : rng.UniformInt(0, 3000);
    if (a != b) {
      pool.emplace_back(a, b);
    }
  }

  PairStream stream(kSeed);
  std::uint64_t ref_seed = kSeed;
  std::unordered_map<std::uint64_t, std::uint64_t> ref_counts;
  for (int call = 0; call < kCalls; ++call) {
    // Heavy repeats: half the calls hit the first 1,000 pairs.
    const std::size_t hot = rng.NextUint64(2) == 0 ? 1000 : pool.size();
    auto [a, b] = pool[rng.NextUint64(hot)];
    if (rng.NextUint64(2) == 0) {
      std::swap(a, b);
    }
    if (ref_counts.size() >= PairStream::kMaxTrackedPairs) {
      ref_counts.clear();
      ref_seed = Mix64(ref_seed);
    }
    const std::uint64_t count = ref_counts[PairKey(a, b)]++;
    ASSERT_EQ(stream.Next(a, b), Expected(ref_seed, a, b, count))
        << "call " << call << " pair {" << a << ", " << b << "}";
    ASSERT_EQ(stream.tracked_pairs(), ref_counts.size()) << "call " << call;
  }
  EXPECT_EQ(stream.seed(), ref_seed);
  // Growth happened several times: 40,000 pairs outgrow every array
  // below 2^16 slots.
  EXPECT_GT(stream.tracked_pairs(), 30'000u);
}

// A query worker resets one stream per query instead of building a new
// one; every later word must be a new stream's, also when the reset
// stream had crossed the bound (a remixed seed, a full-size array) and
// when it crosses the bound again after the reset.
TEST(PairStream, ResetMatchesAFreshStream) {
  constexpr std::uint64_t kSeed = 31;
  const auto distinct = static_cast<std::int64_t>(PairStream::kMaxTrackedPairs);
  PairStream reused(kSeed);
  for (std::int64_t i = 1; i <= distinct + 5; ++i) {
    reused.Next(0, i);
  }
  ASSERT_EQ(reused.seed(), Mix64(kSeed));

  for (const std::uint64_t seed : {kSeed, std::uint64_t{97}}) {
    SCOPED_TRACE(seed);
    reused.Reset(seed);
    PairStream fresh(seed);
    EXPECT_EQ(reused.seed(), fresh.seed());
    EXPECT_EQ(reused.tracked_pairs(), 0u);
    // Repeats of a few pairs, then enough distinct pairs to flush.
    Rng rng(seed);
    for (int call = 0; call < 5000; ++call) {
      const std::int64_t a = rng.UniformInt(0, 40);
      const std::int64_t b = rng.UniformInt(0, 40);
      ASSERT_EQ(reused.Next(a, b), fresh.Next(a, b)) << "call " << call;
    }
    for (std::int64_t i = 1; i <= distinct + 5; ++i) {
      ASSERT_EQ(reused.Next(1, i), fresh.Next(1, i)) << "pair {1, " << i << "}";
    }
    EXPECT_EQ(reused.seed(), fresh.seed());
    EXPECT_EQ(reused.tracked_pairs(), fresh.tracked_pairs());
  }
}

}  // namespace
}  // namespace np::util
