// Karger-Ruhl-style distance-based sampling (STOC'02, as framed by the
// paper's §6): each peer keeps random samples from balls of
// geometrically growing radii; a query zooms in by probing the samples
// at the scale of the current distance and moving to any closer peer.
// Correct and efficient in growth-constrained metrics; degenerates to
// random probing inside a cluster (§2.2).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/back_refs.h"
#include "core/member_index.h"
#include "core/nearest_algorithm.h"

namespace np::algos {

/// Empty: every Karger-Ruhl parameter is a KargerRuhlNearest constant.
/// Kept because perfbench constructs `KargerRuhlConfig{}`.
struct KargerRuhlConfig {};

class KargerRuhlNearest final : public core::NearestPeerAlgorithm {
 public:
  /// Innermost ball radius, ms.
  static constexpr double kAlphaMs = 1.0;
  /// Ball radius growth factor.
  static constexpr double kGrowth = 2.0;
  /// Number of ball scales (the 8-bit BackRefs slot holds a scale).
  static constexpr int kNumScales = 16;
  static_assert(kNumScales >= 1 && kNumScales <= 255);
  /// Random samples kept per scale.
  static constexpr int kSamplesPerScale = 8;
  /// Scales around the current distance probed per step (+- this).
  static constexpr int kScaleWindow = 1;
  /// Hop safety cap.
  static constexpr int kMaxHops = 64;

  explicit KargerRuhlNearest(KargerRuhlConfig /*config*/ = {}) {}

  std::string name() const override { return "karger-ruhl"; }

  void Build(const core::LatencySpace& space, std::vector<NodeId> members,
             util::Rng& rng) override;

  /// Ball sampling is independent per member, so batch construction
  /// fans out over ParallelFor with per-member RNG streams
  /// `Mix64(base ^ node)` — bit-identical to the serial Build for
  /// every thread count (see the base-class contract).
  bool SupportsParallelBuild() const override { return true; }
  void ParallelBuild(const core::LatencySpace& space,
                     std::vector<NodeId> members, util::Rng& rng,
                     int num_threads) override;

  /// Incremental membership: a joiner probes a bounded random subset
  /// of the overlay to fill its per-scale samples, and each probed
  /// member considers the joiner for its own samples (random
  /// replacement when full — the classic membership-refresh rule). A
  /// leaver is purged from every sample list that holds it — located
  /// through per-member occurrence lists, not an overlay scan, so a
  /// leave costs O(lists holding the leaver), O(1) amortized in the
  /// overlay size; thinned lists are only repaired opportunistically
  /// by later joins, which is exactly the staleness a real sampling
  /// overlay carries under churn.
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

  /// All state is value-semantic (index, flat sample blocks,
  /// occurrence lists) plus the borrowed immutable space.
  bool SupportsSnapshot() const override { return true; }
  std::unique_ptr<core::NearestPeerAlgorithm> Clone() const override {
    return core::DetachedClone(std::make_unique<KargerRuhlNearest>(*this));
  }

  /// Samples of one member at one scale, in list order (for tests).
  std::vector<NodeId> SamplesOf(NodeId member, int scale) const;

  /// Length of one member's occurrence list (for tests asserting the
  /// compaction bound: length stays O(live entries)).
  std::size_t OccurrenceEntries(NodeId member) const;

  /// Structural invariants (tests): every per-scale count is within
  /// [0, kSamplesPerScale]; every held id is a live member other
  /// than its owner; every held (owner, scale, member) has a matching
  /// entry in the member's occurrence list (what the RemoveMember
  /// purge relies on); and every occurrence list is below its
  /// compaction trigger (core::BackRefs). Throws util::Error on
  /// violation.
  void CheckInvariants() const;

  int ScaleFor(LatencyMs distance_ms) const;

 private:
  /// Shared construction path: Build runs it inline (num_threads = 1,
  /// the serial reference), ParallelBuild fans it out.
  void BuildImpl(const core::LatencySpace& space, std::vector<NodeId> members,
                 util::Rng& rng, int num_threads);

  /// Sample block of the member at `position`: `kNumScales` counts,
  /// then `kNumScales` runs of `kSamplesPerScale` id slots (only the
  /// first `count` slots of a run are meaningful).
  NodeId* Block(std::size_t position) {
    return samples_.data() + position * kStride;
  }
  const NodeId* Block(std::size_t position) const {
    return samples_.data() + position * kStride;
  }
  static constexpr std::size_t SlotOffset(int scale) {
    return static_cast<std::size_t>(kNumScales) +
           static_cast<std::size_t>(scale) *
               static_cast<std::size_t>(kSamplesPerScale);
  }
  /// Sample block length per member: kNumScales counts plus
  /// kNumScales * kSamplesPerScale id slots.
  static constexpr std::size_t kStride =
      static_cast<std::size_t>(kNumScales) * (1 + kSamplesPerScale);

  /// Whether the sample list (owner at `owner_pos`, `scale`) holds
  /// `member`: the occurrence lists' holds-test.
  bool Holds(std::size_t owner_pos, std::size_t scale, NodeId member) const;

  const core::LatencySpace* space_ = nullptr;
  core::MemberIndex members_;
  /// Flat per-member sample blocks, block i at [i * kStride, (i + 1) *
  /// kStride) for the member at position i (see Block()).
  std::vector<NodeId> samples_;
  /// occ_[member_pos] -> packed (owner, scale) sample lists that may
  /// hold the member (scales fit the 8-bit slot: kNumScales <= 255 is
  /// asserted at compile time). Entries go stale when a list drops the
  /// member for another reason (random replacement, the owner
  /// leaving), so RemoveMember's purge treats a no-op erase as stale.
  core::BackRefs occ_;
};

}  // namespace np::algos
