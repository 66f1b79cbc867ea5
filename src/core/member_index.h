// Indexed overlay membership: a dense id→slot map over a swap-and-pop
// member vector.
//
// Every structured overlay in this repository keeps its per-member
// state in arrays parallel to a `std::vector<NodeId> members_`, and
// before this class existed most of them located a member with
// `std::find` — an O(overlay) scan on every RemoveMember, which is
// exactly the maintenance blow-up that caps churn experiments well
// below the ROADMAP's n = 10^5 target. MemberIndex makes Contains /
// PositionOf / Add / Remove O(1) (amortized: the slot table grows to
// the largest node id seen), so a leave costs only whatever repair
// probes the scheme itself bills — the honest per-leave price.
//
// The slot table is a dense vector indexed by NodeId (node ids are
// space indices, bounded by the world size), not a hash map: the churn
// hot path pays one bounds check and one load per lookup.
//
// Remove swaps the last member into the vacated slot. Owners of
// parallel per-member arrays mirror that move using the returned
// RemoveResult (position vacated + whether a swap happened).
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace np::core {

class MemberIndex {
 public:
  static constexpr std::size_t kNoPosition = static_cast<std::size_t>(-1);

  /// Outcome of a Remove: `position` is the slot the leaver vacated;
  /// when `swapped` is true the previously-last member now occupies
  /// that slot and parallel arrays must mirror the move.
  struct RemoveResult {
    std::size_t position = 0;
    bool swapped = false;
  };

  MemberIndex() = default;

  /// Rebuilds the index over `members` (replacing any prior state).
  /// Ids must be non-negative and distinct.
  void Reset(std::vector<NodeId> members);

  /// Drops every member (the slot table's capacity is retained).
  void Clear();

  const std::vector<NodeId>& members() const { return members_; }
  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  NodeId at(std::size_t position) const { return members_[position]; }

  bool Contains(NodeId node) const {
    return PositionOf(node) != kNoPosition;
  }

  /// Slot of `node`, or kNoPosition when absent. O(1).
  std::size_t PositionOf(NodeId node) const {
    const auto id = static_cast<std::size_t>(node);
    if (node < 0 || id >= slot_of_.size() || slot_of_[id] < 0) {
      return kNoPosition;
    }
    return static_cast<std::size_t>(slot_of_[id]);
  }

  /// Appends `node` and returns its slot. Throws if already present
  /// (double-add) or negative. O(1) amortized.
  std::size_t Add(NodeId node);

  /// Removes `node` by swap-and-pop. Throws if absent (double-remove).
  /// O(1).
  RemoveResult Remove(NodeId node);

 private:
  std::vector<NodeId> members_;
  /// slot_of_[id] = position of id in members_, -1 when absent. Sized
  /// to the largest id seen (ids are space indices, so this is O(n)
  /// for the world, not O(overlay^2)). Positions fit 32 bits: there
  /// are at most as many members as distinct NodeIds, and NodeId is
  /// 32-bit (static-asserted in util/types.h).
  std::vector<std::int32_t> slot_of_;
};

}  // namespace np::core
