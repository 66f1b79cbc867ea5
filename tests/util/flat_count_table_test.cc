// util::FlatCountTable: post-increment counts, set use, growth at a
// load of 3/4, Clear(), and the key range the probe path feeds it
// (single NodeIds and PairKeys, 0 through INT32_MAX).
#include "util/flat_count_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace np::util {
namespace {

constexpr std::uint64_t kMaxId = 0x7fffffff;  // largest NodeId

/// Smallest power-of-two array (>= kMinSlots) that holds n keys at a
/// load of at most 3/4.
std::size_t ExpectedCapacity(std::size_t n) {
  std::size_t slots = FlatCountTable::kMinSlots;
  while (n * 4 > slots * 3) {
    slots *= 2;
  }
  return slots;
}

TEST(FlatCountTable, AllocatesOnTheFirstInsert) {
  FlatCountTable table;
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.Contains(0));
  EXPECT_FALSE(table.Contains(kMaxId));
  EXPECT_EQ(table.capacity(), 0u);  // lookups allocate nothing

  EXPECT_EQ(table.Increment(7), 0u);
  EXPECT_EQ(table.capacity(), FlatCountTable::kMinSlots);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatCountTable, IncrementReturnsTheCountBeforeTheCall) {
  FlatCountTable table;
  EXPECT_EQ(table.Increment(5), 0u);
  EXPECT_EQ(table.Increment(5), 1u);
  EXPECT_EQ(table.Increment(9), 0u);
  EXPECT_EQ(table.Increment(5), 2u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlatCountTable, InsertIsTrueOnTheFirstSightingOnly) {
  FlatCountTable table;
  EXPECT_TRUE(table.Insert(3));
  EXPECT_FALSE(table.Insert(3));
  EXPECT_TRUE(table.Contains(3));
  EXPECT_FALSE(table.Contains(4));
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatCountTable, KeyZeroAndTheLargestIdsAreOrdinaryKeys) {
  FlatCountTable table;
  const std::vector<std::uint64_t> keys = {
      0,
      kMaxId,
      PairKey(1, 0x7fffffff),
      PairKey(0x7fffffff - 1, 0x7fffffff),
      PairKey(0x7fffffff, 0x7fffffff),
  };
  for (const std::uint64_t key : keys) {
    EXPECT_FALSE(table.Contains(key)) << key;
    EXPECT_EQ(table.Increment(key), 0u) << key;
  }
  for (const std::uint64_t key : keys) {
    EXPECT_TRUE(table.Contains(key)) << key;
    EXPECT_EQ(table.Increment(key), 1u) << key;
  }
  EXPECT_EQ(table.size(), keys.size());
  // The largest PairKey two NodeIds can form is still not the empty key.
  EXPECT_NE(PairKey(0x7fffffff, 0x7fffffff), FlatCountTable::kEmptyKey);
}

TEST(FlatCountTable, MatchesAnUnorderedMapAcrossGrowth) {
  Rng rng(11);
  FlatCountTable table;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  // 200,000 increments over up to 60,000 keys: small ids, whole-range
  // ids and PairKeys, with repeats; the array doubles from 16 to 2^17
  // slots on the way.
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 60'000; ++i) {
    switch (rng.NextUint64(3)) {
      case 0:
        keys.push_back(rng.NextUint64(5000));
        break;
      case 1:
        keys.push_back(rng.NextUint64(kMaxId + 1));
        break;
      default:
        keys.push_back(PairKey(
            static_cast<std::int64_t>(rng.NextUint64(kMaxId + 1)),
            static_cast<std::int64_t>(rng.NextUint64(kMaxId + 1))));
    }
  }
  std::size_t last_capacity = 0;
  int growths = 0;
  for (int call = 0; call < 200'000; ++call) {
    const std::uint64_t key = keys[rng.NextUint64(keys.size())];
    ASSERT_EQ(table.Increment(key), reference[key]++) << "call " << call;
    ASSERT_EQ(table.size(), reference.size());
    ASSERT_EQ(table.capacity(), ExpectedCapacity(table.size()));
    if (table.capacity() != last_capacity) {
      ++growths;
      last_capacity = table.capacity();
      // Every key survives the rehash with its count.
      for (const auto& [held, count] : reference) {
        ASSERT_TRUE(table.Contains(held)) << held;
      }
    }
  }
  EXPECT_GE(growths, 10);
  for (const auto& [key, count] : reference) {
    EXPECT_EQ(table.Increment(key), count) << key;
  }
  // Keys never inserted stay absent.
  for (std::uint64_t key = kMaxId + 1; key < kMaxId + 1000; ++key) {
    if (reference.count(key) == 0) {
      EXPECT_FALSE(table.Contains(key)) << key;
    }
  }
}

TEST(FlatCountTable, ClearEmptiesEverySlotAndKeepsTheArray) {
  FlatCountTable table;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    table.Increment(key);
    table.Increment(key);
  }
  const std::size_t capacity = table.capacity();
  EXPECT_EQ(capacity, ExpectedCapacity(1000));
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), capacity);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_FALSE(table.Contains(key)) << key;
  }
  EXPECT_EQ(table.Increment(17), 0u);  // counts restart at 0
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatCountTable, CopiesAreIndependent) {
  FlatCountTable table;
  table.Increment(1);
  FlatCountTable copy = table;
  EXPECT_EQ(copy.Increment(1), 1u);
  EXPECT_EQ(copy.Increment(1), 2u);
  EXPECT_EQ(table.Increment(1), 1u);
  EXPECT_TRUE(copy.Insert(2));
  EXPECT_FALSE(table.Contains(2));
}

}  // namespace
}  // namespace np::util
