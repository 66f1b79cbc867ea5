// Tapestry-style identifier-prefix sampling (Hildrum et al., SPAA'02;
// the paper's "identifier-based sampling" family): members carry random
// hex identifiers; each node's level-l table holds, for every hex
// digit, the closest member agreeing with the node's own id on the
// first l digits and having that digit at position l. A nearest-peer
// search descends the levels, probing each level's table and moving to
// the closest entry — the iterative closest-neighbor construction the
// paper describes in §6.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/back_refs.h"
#include "core/member_index.h"
#include "core/nearest_algorithm.h"

namespace np::algos {

/// Empty: every Tapestry parameter is a TapestryNearest constant. Kept
/// because perfbench constructs `TapestryConfig{}`.
struct TapestryConfig {};

class TapestryNearest final : public core::NearestPeerAlgorithm {
 public:
  /// Identifier digits (base-16); 8 digits = 32-bit ids.
  static constexpr int kNumDigits = 8;
  /// Safety cap on level descents per query.
  static constexpr int kMaxHops = 64;

  explicit TapestryNearest(TapestryConfig /*config*/ = {}) {}

  std::string name() const override { return "tapestry"; }

  void Build(const core::LatencySpace& space, std::vector<NodeId> members,
             util::Rng& rng) override;

  /// Identifier assignment stays serial (collision-free draws are a
  /// sequential O(n) trickle), then every member's routing table is
  /// filled independently under ParallelFor — no RNG in that phase, so
  /// the parallel build is trivially bit-identical to the serial one.
  bool SupportsParallelBuild() const override { return true; }
  void ParallelBuild(const core::LatencySpace& space,
                     std::vector<NodeId> members, util::Rng& rng,
                     int num_threads) override;

  /// Incremental membership: a joiner draws a fresh id, measures every
  /// member once (one RTT handshake serves both directions), builds
  /// its own tables from those measurements, and is installed into any
  /// table slot it wins. A leaver is evicted from exactly the slots
  /// that reference it (tracked by per-member back-reference lists —
  /// no overlay scan); each orphaned slot is then repaired by
  /// re-scanning the eligible members with billed probes — the
  /// expensive prefix-repair path that makes identifier-based sampling
  /// costly under churn.
  bool SupportsChurn() const override { return true; }
  void AddMember(NodeId node, util::Rng& rng) override;
  void RemoveMember(NodeId node) override;

  /// Query path audited read-only over overlay state: safe for the
  /// runner's concurrent per-query threads.
  bool ParallelQuerySafe() const override { return true; }

  core::QueryResult FindNearest(NodeId target,
                                const core::MeteredSpace& metered,
                                util::Rng& rng) override;

  const std::vector<NodeId>& members() const override {
    return members_.members();
  }

  /// All state is value-semantic (index, routing tables) plus the
  /// borrowed immutable space.
  bool SupportsSnapshot() const override { return true; }
  std::unique_ptr<core::NearestPeerAlgorithm> Clone() const override {
    return core::DetachedClone(std::make_unique<TapestryNearest>(*this));
  }

  std::uint32_t IdOf(NodeId member) const;

  /// Entries of a member's level-l routing table (deduped, for tests).
  std::vector<NodeId> TableOf(NodeId member, int level) const;

  /// Length of one member's back-reference list (for tests asserting
  /// the compaction bound: length stays O(live entries)).
  std::size_t RefEntries(NodeId member) const;

 private:
  /// Routing-table slots per member: one per (level, hex digit).
  static constexpr std::size_t kSlots = kNumDigits * 16;

  static int DigitAt(std::uint32_t id, int level);

  /// Longest shared digit prefix of two ids.
  int SharedPrefix(std::uint32_t a, std::uint32_t b) const;

  /// Draws an id not yet in use.
  std::uint32_t DrawFreshId(util::Rng& rng);

  /// Shared construction path (Build = serial reference, num_threads
  /// = 1).
  void BuildImpl(const core::LatencySpace& space, std::vector<NodeId> members,
                 util::Rng& rng, int num_threads);

  /// Installs `entry` into `owner_pos`'s table slot if it improves it,
  /// maintaining latency and back-references.
  void InstallEntry(std::size_t owner_pos, std::size_t slot, NodeId entry,
                    LatencyMs latency);

  /// Whether table slot `slot` of the owner at `owner_pos` holds
  /// `member`: the back-reference lists' holds-test.
  bool Holds(std::size_t owner_pos, std::size_t slot, NodeId member) const;

  const core::LatencySpace* space_ = nullptr;
  core::MemberIndex members_;
  std::vector<std::uint32_t> ids_;
  std::unordered_set<std::uint32_t> used_ids_;
  /// tables_[member_pos][level * 16 + digit] -> member id or
  /// kInvalidNode. Entries are node ids (not positions), so
  /// swap-and-pop removal never has to re-map surviving tables.
  std::vector<std::vector<NodeId>> tables_;
  /// Measured latency to each table entry (kInfiniteLatency for empty
  /// slots); churn repair consults it instead of re-probing pairs the
  /// owner already knows.
  std::vector<std::vector<LatencyMs>> table_latency_;
  /// refs_[member_pos] -> packed (owner, slot) table slots that may
  /// reference this member (slots fit 8 bits: kNumDigits = 8 -> slot
  /// < 128). Entries go stale when the slot is overwritten by a closer
  /// candidate or the owner leaves; RemoveMember re-checks the named
  /// slot before evicting, so stale entries are skipped.
  core::BackRefs refs_;
};

}  // namespace np::algos
