#include "core/back_refs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace np::core {
namespace {

std::vector<NodeId> FirstN(NodeId n) {
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < n; ++i) {
    ids.push_back(i);
  }
  return ids;
}

using Seen = std::vector<std::pair<std::size_t, std::size_t>>;

/// Every (owner_pos, slot) the walk reports, in call order.
Seen Walk(const BackRefs& refs, std::size_t position,
          const MemberIndex& members) {
  Seen seen;
  const auto record = [&](std::size_t owner, std::size_t slot) {
    seen.emplace_back(owner, slot);
  };
  std::vector<std::size_t> owner_pos;
  refs.ForEachLive(position, members, owner_pos, record);
  return seen;
}

TEST(BackRefs, PackRoundTripsAtTheLimits) {
  constexpr NodeId kMaxId = std::numeric_limits<std::int32_t>::max();
  for (const NodeId owner : {NodeId{0}, NodeId{1}, kMaxId}) {
    for (const std::size_t slot : {std::size_t{0}, std::size_t{255}}) {
      const std::uint64_t entry = BackRefs::Pack(owner, slot);
      EXPECT_EQ(BackRefs::OwnerOf(entry), owner);
      EXPECT_EQ(BackRefs::SlotOf(entry), slot);
    }
  }
  // Integer order of the word is (owner, slot) order.
  EXPECT_LT(BackRefs::Pack(3, 255), BackRefs::Pack(4, 0));
}

TEST(BackRefs, NoCompactionBelowTheMinimum) {
  MemberIndex members;
  members.Reset(FirstN(100));
  BackRefs refs;
  refs.Reset(members.size());
  int calls = 0;
  const auto holds = [&](std::size_t, std::size_t, NodeId) {
    ++calls;
    return false;  // every entry stale: a compaction would empty the list
  };
  for (std::size_t i = 0; i + 1 < BackRefs::kCompactMin; ++i) {
    refs.Add(0, static_cast<NodeId>(1 + i % 10), 0, members, holds);
  }
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(refs[0].entries.size(), BackRefs::kCompactMin - 1);
  EXPECT_EQ(refs[0].floor, BackRefs::kCompactMin / 2);
}

TEST(BackRefs, CompactsExactlyAtTwiceTheFloor) {
  MemberIndex members;
  members.Reset(FirstN(200));
  BackRefs refs;
  refs.Reset(members.size());
  const auto stale = [](std::size_t, std::size_t, NodeId) { return false; };
  // Floor 32 (the default): the trigger is kCompactMin = 64.
  for (NodeId owner = 1; owner <= 63; ++owner) {
    refs.Add(0, owner, 0, members, stale);
  }
  EXPECT_EQ(refs[0].entries.size(), 63u);
  refs.Add(0, 64, 0, members, stale);
  EXPECT_TRUE(refs[0].entries.empty());

  // A settled list of 50 live entries: the trigger is 2 x 50 = 100.
  for (NodeId owner = 1; owner <= 50; ++owner) {
    refs[1].entries.push_back(BackRefs::Pack(owner + 1, 0));
  }
  refs.Settle(1);
  EXPECT_EQ(refs[1].floor, 50u);
  for (NodeId owner = 52; owner <= 100; ++owner) {
    refs.Add(1, owner, 0, members, stale);
  }
  EXPECT_EQ(refs[1].entries.size(), 99u);
  EXPECT_FALSE(BackRefs::CompactionDue(refs[1]));
  refs.Add(1, 101, 0, members, stale);
  EXPECT_TRUE(refs[1].entries.empty());
}

TEST(BackRefs, CompactionDedupesAndDropsRejectedEntries) {
  MemberIndex members;
  members.Reset(FirstN(40));
  BackRefs refs;
  refs.Reset(members.size());
  // Owners at odd positions still hold member 5 in slot 7; every other
  // entry is stale. Each (owner, slot) is appended twice.
  std::vector<NodeId> asked;
  const auto holds = [&](std::size_t owner_pos, std::size_t slot,
                         NodeId member) {
    asked.push_back(member);
    return owner_pos % 2 == 1 && slot == 7;
  };
  for (int copy = 0; copy < 2; ++copy) {
    for (NodeId owner = 39; owner >= 8; --owner) {
      refs.Add(5, owner, owner % 3 == 0 ? 3 : 7, members, holds);
    }
  }
  std::vector<std::uint64_t> expected;
  for (NodeId owner = 9; owner <= 39; owner += 2) {
    if (owner % 3 != 0) {
      expected.push_back(BackRefs::Pack(owner, 7));
    }
  }
  EXPECT_EQ(refs[5].entries, expected);
  // The holds-test ran once per distinct entry, for the list's member.
  EXPECT_EQ(asked, std::vector<NodeId>(32, 5));
  // Floor after a compaction: max(kept, kCompactMin / 2).
  EXPECT_EQ(refs[5].floor, BackRefs::kCompactMin / 2);
}

TEST(BackRefs, FloorAfterCompactionIsTheLiveLength) {
  MemberIndex members;
  members.Reset(FirstN(100));
  BackRefs refs;
  refs.Reset(members.size());
  const auto live = [](std::size_t, std::size_t, NodeId) { return true; };
  for (NodeId owner = 1; owner <= 64; ++owner) {
    refs.Add(0, owner, 1, members, live);
  }
  EXPECT_EQ(refs[0].entries.size(), 64u);
  EXPECT_EQ(refs[0].floor, 64u);
  EXPECT_FALSE(BackRefs::CompactionDue(refs[0]));
}

TEST(BackRefs, MirrorFollowsMemberIndexSwapAndPop) {
  MemberIndex members;
  members.Reset({7, 8, 9, 11});
  BackRefs refs;
  refs.Reset(members.size());
  for (std::size_t p = 0; p < members.size(); ++p) {
    refs[p].entries.push_back(BackRefs::Pack(members.at(p), p));
    refs[p].floor = 100 + p;
  }
  refs.Mirror(members.Remove(8));  // 11 moves into position 1
  ASSERT_EQ(refs.size(), 3u);
  for (std::size_t p = 0; p < members.size(); ++p) {
    ASSERT_EQ(refs[p].entries.size(), 1u);
    EXPECT_EQ(BackRefs::OwnerOf(refs[p].entries[0]), members.at(p));
  }
  EXPECT_EQ(refs[1].floor, 103u);
  refs.Mirror(members.Remove(9));  // the last member: no swap
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(BackRefs::OwnerOf(refs[1].entries[0]), 11);
  members.Add(20);
  refs.Grow();
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_TRUE(refs[2].entries.empty());
  EXPECT_EQ(refs[2].floor, BackRefs::kCompactMin / 2);
}

TEST(BackRefs, WalkSkipsDepartedOwnersAndItselfInListOrder) {
  MemberIndex members;
  members.Reset({10, 20, 30, 40});
  BackRefs refs;
  refs.Reset(members.size());
  // The list of member 20 (position 1) names owners 40, 99 (never a
  // member), 20 itself, 10, 30 (leaves below) and 40 again.
  const NodeId owners[] = {40, 99, 20, 10, 30, 40};
  const std::size_t slots[] = {2, 1, 4, 0, 5, 9};
  for (int i = 0; i < 6; ++i) {
    refs[1].entries.push_back(BackRefs::Pack(owners[i], slots[i]));
  }
  EXPECT_EQ(Walk(refs, 1, members), (Seen{{3, 2}, {0, 0}, {2, 5}, {3, 9}}));
  refs.Mirror(members.Remove(30));  // 40 moves into position 2
  EXPECT_EQ(Walk(refs, 1, members), (Seen{{2, 2}, {0, 0}, {2, 9}}));
}

}  // namespace
}  // namespace np::core
