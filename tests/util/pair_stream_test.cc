// util::PairStream: the per-pair draw formula, symmetry, and the
// kMaxTrackedPairs generation flush that NoisySpace, FaultySpace and
// PartitionedSpace share.
#include "util/pair_stream.h"

#include <gtest/gtest.h>

#include <cstdint>

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

}  // namespace
}  // namespace np::util
