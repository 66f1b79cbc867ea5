// Back-reference lists: for every overlay member, the places that may
// hold it, so a leave costs O(entries naming the leaver), not
// O(overlay).
//
// Karger-Ruhl (sample lists), Meridian (rings) and Tapestry (routing
// table slots) all keep one list per member, parallel to a
// MemberIndex. An entry packs `(owner << 8) | slot`: the owner's node
// id and the owner-side slot (a scale, ring or table slot below 256)
// that took the member. Entries are appended on every insertion and go
// stale without being unrecorded (the slot dropped the member, or the
// owner left), so every consumer re-checks the named slot with its own
// holds-test.
//
// Compaction keeps a list O(live entries): a list's floor is its
// length when every entry was last known live (after a build, the
// member's own join, or a compaction), at least kCompactMin / 2, and
// the list compacts once it reaches max(kCompactMin, 2 x floor) —
// amortized O(1) per append. Entry order carries no meaning, so the
// sort and dedupe of a compaction cannot change any result.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/member_index.h"
#include "util/types.h"

namespace np::core {

class BackRefs {
 public:
  static constexpr std::size_t kCompactMin = 64;

  /// One member's list and its compaction floor, side by side so one
  /// touch loads both.
  struct List {
    std::vector<std::uint64_t> entries;
    std::size_t floor = kCompactMin / 2;
  };

  /// Slots fit 8 bits; NodeId fits 32 (static-asserted in
  /// util/types.h), so the word never overflows.
  static std::uint64_t Pack(NodeId owner, std::size_t slot) {
    return (static_cast<std::uint64_t>(owner) << 8) |
           static_cast<std::uint64_t>(slot);
  }
  static NodeId OwnerOf(std::uint64_t entry) {
    return static_cast<NodeId>(entry >> 8);
  }
  static std::size_t SlotOf(std::uint64_t entry) { return entry & 0xFF; }

  /// True when `list` has reached its compaction trigger.
  static bool CompactionDue(const List& list) {
    return list.entries.size() >= kCompactMin &&
           list.entries.size() >= 2 * list.floor;
  }

  /// One empty list per member (a build starts here).
  void Reset(std::size_t members) { lists_.assign(members, List{}); }
  /// One empty list for a joiner, at the next position.
  void Grow() { lists_.emplace_back(); }
  /// Mirrors MemberIndex::Remove's swap-and-pop.
  void Mirror(const MemberIndex::RemoveResult& removed) {
    if (removed.swapped) {
      lists_[removed.position] = std::move(lists_.back());
    }
    lists_.pop_back();
  }

  std::size_t size() const { return lists_.size(); }
  List& operator[](std::size_t position) { return lists_[position]; }
  const List& operator[](std::size_t position) const {
    return lists_[position];
  }

  /// Marks every entry of the list at `position` live: its floor
  /// becomes max(length, kCompactMin / 2).
  void Settle(std::size_t position) {
    lists_[position].floor =
        std::max(lists_[position].entries.size(), kCompactMin / 2);
  }
  void SettleAll() {
    for (std::size_t p = 0; p < lists_.size(); ++p) {
      Settle(p);
    }
  }

  /// Appends (owner, slot) to the list at `position`, then compacts it
  /// if due. `holds(owner_pos, slot, member)` answers whether the
  /// owner's slot still holds `member`.
  template <typename Holds>
  void Add(std::size_t position, NodeId owner, std::size_t slot,
           const MemberIndex& members, const Holds& holds) {
    lists_[position].entries.push_back(Pack(owner, slot));
    if (!CompactionDue(lists_[position])) {
      return;
    }
    // Sort + unique first: one live entry per (owner, slot) is enough,
    // because every purge erases all copies of the member at once.
    const NodeId self = members.at(position);
    auto& entries = lists_[position].entries;
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
    std::size_t kept = 0;
    const auto keep_held = [&](std::size_t holder, std::size_t at) {
      if (holds(holder, at, self)) {
        entries[kept++] = Pack(members.at(holder), at);
      }
    };
    std::vector<std::size_t> owner_pos;
    ForEachLive(position, members, owner_pos, keep_held);
    entries.resize(kept);
    entries.shrink_to_fit();
    Settle(position);
  }

  /// Calls `fn(owner_pos, slot)` for every entry of the list at
  /// `position` whose owner is still a member other than the list's
  /// own, in list order. Every owner is resolved into `owner_pos`
  /// before the first call (one loop of independent index loads, so
  /// their misses overlap). `fn` must not change the membership; it may
  /// overwrite list entries up to the current one (compaction does).
  template <typename Fn>
  void ForEachLive(std::size_t position, const MemberIndex& members,
                   std::vector<std::size_t>& owner_pos, const Fn& fn) const {
    const auto& entries = lists_[position].entries;
    owner_pos.resize(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      owner_pos[i] = members.PositionOf(OwnerOf(entries[i]));
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (owner_pos[i] != MemberIndex::kNoPosition &&
          owner_pos[i] != position) {
        fn(owner_pos[i], SlotOf(entries[i]));
      }
    }
  }

 private:
  /// lists_[member_pos] -> that member's list.
  std::vector<List> lists_;
};

}  // namespace np::core
