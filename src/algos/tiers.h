// Tiers hierarchical nearest-peer scheme (Banerjee et al., Global
// Internet'02; paper §6): peers are grouped into latency-bounded
// clusters; each cluster elects a representative which joins the next
// level, recursively, until a single top cluster remains. A joining
// peer descends from the top, at each level probing the members of the
// chosen representative's cluster and following the closest.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/member_index.h"
#include "core/nearest_algorithm.h"

namespace np::algos {

struct TiersConfig {
  /// Level-0 cluster radius, ms: members join a representative within
  /// this latency.
  double base_radius_ms = 2.0;
  /// True (default): maintain the hierarchy incrementally under churn
  /// — AddMember runs the scheme's top-down join descent with metered
  /// probes, RemoveMember of a representative triggers a billed
  /// re-election within its cluster. False: the scenario engine
  /// rebuilds the whole hierarchy per epoch instead and bills the
  /// rebuild, which is the pre-repair behavior kept for head-to-head
  /// cost comparisons.
  bool incremental = true;
};

class TiersNearest final : public core::NearestPeerAlgorithm {
 public:
  /// Radius multiplier per level.
  static constexpr double kRadiusGrowth = 4.0;
  /// Maximum members per cluster: a full cluster stops absorbing and
  /// forces a new representative. This is what keeps the probing cost
  /// at each descent step bounded — and what makes the descent a
  /// near-random choice under the clustering condition (§6).
  static constexpr int kMaxClusterSize = 16;
  /// Stop promoting once a level has at most this many members.
  static constexpr int kTopClusterMax = 16;
  /// Hard cap on hierarchy height.
  static constexpr int kMaxLevels = 12;

  explicit TiersNearest(TiersConfig config);

  std::string name() const override {
    return config_.incremental ? "tiers" : "tiers-rebuild";
  }

  void Build(const core::LatencySpace& space, std::vector<NodeId> members,
             util::Rng& rng) override;

  /// The greedy cover at each level is sequential (whether a member
  /// founds a cluster depends on every earlier decision), so
  /// ParallelBuild is the base fallback: the serial Build for every
  /// thread count. Each member probes the representatives back to back,
  /// so a row-caching backend loads its row once per level. Reported
  /// as supported so batch-build timing and billing checks (the
  /// scale-sweep bench) still cover it.
  bool SupportsParallelBuild() const override { return true; }

  /// Incremental membership. A joiner descends from the top cluster,
  /// probing each visited cluster's members (metered through the
  /// space supplied to Build) and attaching to the lowest level whose
  /// nearest representative is within that level's radius and has
  /// room; it becomes a fresh representative of every level below its
  /// attachment point. A leaver that led a cluster triggers a
  /// re-election within that cluster (pairwise probes billed); the
  /// winner inherits the leaver's positions at every higher tier.
  bool SupportsChurn() const override { return config_.incremental; }
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

  /// All state is value-semantic (index, level hierarchy) plus the
  /// borrowed immutable space.
  bool SupportsSnapshot() const override { return true; }
  std::unique_ptr<core::NearestPeerAlgorithm> Clone() const override {
    return core::DetachedClone(std::make_unique<TiersNearest>(*this));
  }

  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// Cluster members led by `rep` at `level` (rep included).
  const std::vector<NodeId>& ClusterOf(int level, NodeId rep) const;

  /// Representatives forming the given level.
  std::vector<NodeId> LevelMembers(int level) const;

  /// Structural invariants (tests): every member appears in exactly
  /// one bottom cluster, every cluster's rep is a member of its own
  /// cluster and of the level above (or of the top set), cluster
  /// sizes respect kMaxClusterSize, and the member->rep index agrees
  /// with the cluster lists. Throws util::Error on violation.
  void CheckInvariants() const;

 private:
  struct Level {
    /// rep -> cluster members (each member of the level is in exactly
    /// one cluster; the rep leads its own).
    std::unordered_map<NodeId, std::vector<NodeId>> clusters;
    /// member -> its rep at this level (reps map to themselves).
    std::unordered_map<NodeId, NodeId> rep_of;
  };

  /// Cluster radius at a level: base_radius_ms * kRadiusGrowth^level.
  double RadiusAt(int level) const;

  /// Re-elects a representative among `cluster` (the old rep already
  /// removed): the member minimizing the summed latency to the others,
  /// every pair probed once through the build-time space (billed
  /// maintenance). Ties break to the lower id.
  NodeId ElectRep(const std::vector<NodeId>& cluster) const;

  TiersConfig config_;
  const core::LatencySpace* space_ = nullptr;
  core::MemberIndex members_;
  std::vector<Level> levels_;  // levels_[0] = bottom
  std::vector<NodeId> top_reps_;
};

}  // namespace np::algos
