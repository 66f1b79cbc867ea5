// ChurnDriver's membership order, pinned by a digest.
//
// A leave or crash removes its node from members() by swap-and-pop, so
// which slot the last member fills decides the order of members(). That
// order is state: a later uniform-victim event draws
// members()[erng.Index(size)], so a changed swap changes every later
// victim. The other ChurnDriver tests check which nodes are members, not
// their order; this one drives a session schedule with crashes (so
// departures resolve through join_of), named-victim and uniform-victim
// trace events, and ForceCrash calls, and folds the order of members()
// and pool(), the sorted crashed() set and every TakePendingRepairs()
// batch into one digest after each chunk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/churn.h"

namespace np::core {
namespace {

constexpr NodeId kInitial = 60;
constexpr NodeId kWorld = 200;

/// FNV-1a (64-bit) over the little-endian bytes of each folded word.
class Fnv1a {
 public:
  void Fold(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Fold(const std::vector<NodeId>& nodes) {
    Fold(nodes.size());
    for (const NodeId node : nodes) {
      Fold(static_cast<std::uint64_t>(node));
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

ChurnEvent Departure(double time_s, ChurnEventType type, NodeId node) {
  ChurnEvent event;
  event.time_s = time_s;
  event.type = type;
  event.node = node;
  return event;
}

/// A session schedule with crashes, merged in time order with trace
/// departures: some name their victim, the rest (node kInvalidNode,
/// join_of -1) draw one uniformly from members(). Every join_of is
/// remapped to its join's position in the merged schedule.
ChurnSchedule MixedSchedule() {
  ChurnScheduleConfig config;
  config.duration_s = 600.0;
  config.events_per_s = 0.4;
  config.mean_session_s = 150.0;
  config.crash_fraction = 0.3;
  config.seed = 7;
  const ChurnSchedule sessions = ChurnSchedule::Poisson(config);

  std::vector<ChurnEvent> extras;
  for (int i = 0; i < 12; ++i) {
    const double time_s = 25.0 + 48.0 * i;
    const ChurnEventType type =
        i % 3 == 0 ? ChurnEventType::kCrash : ChurnEventType::kLeave;
    // Even slots name an initial member (skipped once it has left),
    // odd slots draw a uniform victim.
    const NodeId node =
        i % 2 == 0 ? static_cast<NodeId>(5 * i + 1) : kInvalidNode;
    extras.push_back(Departure(time_s, type, node));
  }

  std::vector<ChurnEvent> merged;
  std::vector<std::int64_t> new_index(sessions.size());
  std::size_t next_extra = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const ChurnEvent& event = sessions.events()[i];
    while (next_extra < extras.size() &&
           extras[next_extra].time_s < event.time_s) {
      merged.push_back(extras[next_extra++]);
    }
    new_index[i] = static_cast<std::int64_t>(merged.size());
    merged.push_back(event);
    if (event.join_of >= 0) {
      merged.back().join_of =
          new_index[static_cast<std::size_t>(event.join_of)];
    }
  }
  merged.insert(merged.end(), extras.begin() + next_extra, extras.end());
  return ChurnSchedule::FromTrace(std::move(merged));
}

TEST(ChurnOrder, MembershipOrderDigestIsPinned) {
  const ChurnSchedule schedule = MixedSchedule();
  std::int64_t session_departures = 0;
  for (const ChurnEvent& event : schedule.events()) {
    session_departures += event.join_of >= 0 ? 1 : 0;
  }
  ASSERT_GT(session_departures, 0);

  std::vector<NodeId> members;
  std::vector<NodeId> pool;
  for (NodeId node = 0; node < kWorld; ++node) {
    (node < kInitial ? members : pool).push_back(node);
  }
  ChurnDriver driver(nullptr, members, pool, /*seed=*/19);

  Fnv1a digest;
  ChurnStats total;
  for (int chunk = 1; chunk <= 12; ++chunk) {
    total += driver.ApplyUntil(schedule, 50.0 * chunk);
    if (chunk % 4 == 0) {
      // A member a third of the way into members(), and node 5, which
      // only the first of these calls can crash.
      const std::vector<NodeId>& live = driver.members();
      digest.Fold(driver.ForceCrash(live[live.size() / 3]) ? 1 : 0);
      digest.Fold(driver.ForceCrash(5) ? 1 : 0);
    }
    digest.Fold(driver.members());
    digest.Fold(driver.pool());
    std::vector<NodeId> crashed(driver.crashed().begin(),
                                driver.crashed().end());
    std::sort(crashed.begin(), crashed.end());
    digest.Fold(crashed);
    digest.Fold(driver.TakePendingRepairs());
  }
  EXPECT_EQ(driver.next_event(), schedule.size());
  EXPECT_GT(total.leaves, 0);
  EXPECT_GT(total.crashes, 0);
  EXPECT_GT(total.skipped, 0);
  EXPECT_EQ(digest.value(), 0x90681a3d6cfb1f25ULL)
      << std::hex << "digest 0x" << digest.value();
}

}  // namespace
}  // namespace np::core
