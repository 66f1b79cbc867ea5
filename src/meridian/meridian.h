// Meridian closest-node discovery (Wong, Slivkins, Sirer, SIGCOMM'05),
// reimplemented as the paper's §4 simulation subject.
//
// Each overlay node keeps concentric latency rings with exponentially
// growing radii; each ring holds at most `ring_size` members chosen for
// geographic diversity (the original maximizes the hypervolume of the
// member polytope; we provide greedy max-min distance — a standard
// k-center approximation — plus sum-distance and random policies for
// ablation). A closest-node query at a node with latency d to the
// target probes ring members whose latency to the node lies within
// [(1-beta)d, (1+beta)d]; it forwards to the best candidate only if
// that candidate improved the distance by at least the beta gate
// (d_next < beta * d), otherwise the query stops.
//
// The paper runs this with beta = 0.5 and 16 nodes per ring.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/back_refs.h"
#include "core/member_index.h"
#include "core/nearest_algorithm.h"
#include "util/rng.h"
#include "util/types.h"

namespace np::meridian {

/// How a full ring chooses which members to keep.
enum class RingSelectionPolicy {
  kRandom,       // uniform subset
  kSumDistance,  // greedy, maximize sum of pairwise latencies
  kMaxMin,       // greedy k-center, maximize minimum pairwise latency
};

struct MeridianConfig {
  /// Maximum members kept per ring (the paper uses 16).
  int ring_size = 16;
  /// Acceptance gate: forward only if the best candidate is closer to
  /// the target than beta * (current distance). The paper uses 0.5.
  double beta = 0.5;
  RingSelectionPolicy selection = RingSelectionPolicy::kMaxMin;

  /// Build mode. Full knowledge = every node considers every member
  /// for its rings, i.e. a fully converged deployment (what the
  /// paper's simulator assumes). With gossip, each node starts from a
  /// few bootstrap contacts and learns candidates by exchanging ring
  /// contents for `gossip_rounds` rounds — the real protocol's
  /// discovery path.
  bool full_knowledge = true;
  int gossip_bootstrap_contacts = 8;
  int gossip_rounds = 24;
};

/// One ring entry: a member and the (build-time measured) latency from
/// the ring owner to it.
struct RingEntry {
  NodeId member = kInvalidNode;
  LatencyMs latency_ms = 0.0;
};

/// Per-hop trace record for diagnosis and tests.
struct HopRecord {
  NodeId node = kInvalidNode;
  LatencyMs distance_to_target_ms = 0.0;
  int candidates_probed = 0;
};

struct TracedResult {
  core::QueryResult result;
  std::vector<HopRecord> hops;
};

class MeridianOverlay final : public core::NearestPeerAlgorithm {
 public:
  /// Innermost ring radius, ms: ring 0 holds members closer than this.
  static constexpr double kAlphaMs = 1.0;
  /// Ring radius growth factor: ring i (i >= 1) spans
  /// [kAlphaMs * kRingGrowth^(i-1), kAlphaMs * kRingGrowth^i).
  static constexpr double kRingGrowth = 2.0;
  /// Number of rings; the outermost is open-ended. The 8-bit BackRefs
  /// slot holds a ring index.
  static constexpr int kNumRings = 16;
  static_assert(kNumRings >= 1 && kNumRings <= 255);
  /// Safety cap on forwarding hops.
  static constexpr int kMaxHops = 64;

  explicit MeridianOverlay(MeridianConfig config);

  std::string name() const override { return "meridian"; }

  void Build(const core::LatencySpace& space, std::vector<NodeId> members,
             util::Rng& rng) override;

  /// Full-knowledge ring construction is independent per member, so
  /// batch construction fans out over ParallelFor with per-member RNG
  /// streams `Mix64(base ^ node)` — bit-identical to the serial Build
  /// for every thread count. The gossip build is round-sequential by
  /// nature and runs serially regardless of the thread budget (still
  /// deterministic).
  bool SupportsParallelBuild() const override { return true; }
  void ParallelBuild(const core::LatencySpace& space,
                     std::vector<NodeId> members, util::Rng& rng,
                     int num_threads) override;

  /// Incremental membership: a joiner bootstraps its rings from a few
  /// random contacts (and their ring members), and existing members
  /// consider the joiner for their own rings; a leaver is purged from
  /// the rings that hold it, located through per-member occurrence
  /// lists rather than an overlay scan — O(rings holding the leaver)
  /// per leave, O(1) amortized in the overlay size.
  bool SupportsChurn() const override { return true; }
  void AddMember(NodeId node, util::Rng& rng) override;
  void RemoveMember(NodeId node) override;

  /// Query path audited read-only over overlay state: safe for the
  /// runner's concurrent per-query threads.
  bool ParallelQuerySafe() const override { return true; }

  core::QueryResult FindNearest(NodeId target,
                                const core::MeteredSpace& metered,
                                util::Rng& rng) override;

  /// FindNearest plus the per-hop trace.
  TracedResult FindNearestTraced(NodeId target,
                                 const core::MeteredSpace& metered,
                                 util::Rng& rng);

  const std::vector<NodeId>& members() const override {
    return members_.members();
  }

  /// All state is value-semantic (index, per-member rings) plus the
  /// borrowed immutable space.
  bool SupportsSnapshot() const override { return true; }
  std::unique_ptr<core::NearestPeerAlgorithm> Clone() const override {
    return core::DetachedClone(std::make_unique<MeridianOverlay>(*this));
  }

  const MeridianConfig& config() const { return config_; }

  /// Ring index that a member at the given latency falls into.
  int RingIndexFor(LatencyMs latency_ms) const;

  /// The rings of one member (indexed by its position in members()).
  const std::vector<std::vector<RingEntry>>& RingsOf(NodeId member) const;

  /// Length of one member's occurrence list (for tests asserting the
  /// compaction bound: length stays O(live entries)).
  std::size_t OccurrenceEntries(NodeId member) const;

 private:
  /// Reduces `candidates` to at most `ring_size` per the policy.
  std::vector<RingEntry> SelectRingMembers(std::vector<RingEntry> candidates,
                                           util::Rng& rng) const;

  /// Shared construction path (Build = serial reference, num_threads
  /// = 1).
  void BuildImpl(const core::LatencySpace& space, std::vector<NodeId> members,
                 util::Rng& rng, int num_threads);

  /// Converged build: every member considered for every ring.
  void BuildFullKnowledge(const core::LatencySpace& space, util::Rng& rng,
                          int num_threads);

  /// Gossip build: bootstrap contacts + ring-exchange rounds.
  void BuildByGossip(const core::LatencySpace& space, util::Rng& rng);

  /// Whether ring `ring` of the owner at `owner_pos` holds `member`:
  /// the occurrence lists' holds-test.
  bool Holds(std::size_t owner_pos, std::size_t ring, NodeId member) const;

  MeridianConfig config_;
  const core::LatencySpace* space_ = nullptr;
  core::MemberIndex members_;
  /// rings_[member_pos][ring] -> selected entries.
  std::vector<std::vector<std::vector<RingEntry>>> rings_;
  /// occ_[member_pos] -> packed (owner, ring) rings that may hold this
  /// member (rings fit the 8-bit slot: kNumRings <= 255 is asserted at
  /// compile time). Ring reselection drops entries without unrecording, so
  /// RemoveMember's purge treats a no-op erase as stale.
  core::BackRefs occ_;
};

}  // namespace np::meridian
