// Composition of a §5 mechanism with a classic nearest-peer algorithm:
// "the three approaches listed above would be used in conjunction with
// existing near-peer finding algorithms (and with one another) to
// obtain maximum accuracy". The mechanism proposes topology-informed
// candidates which the joiner probes; if none is an extreme-nearby
// peer, the query falls back to the inner algorithm (e.g. Meridian)
// and the better of the two answers wins.
#pragma once

#include <atomic>
#include <memory>
#include <optional>

#include "core/member_index.h"
#include "core/nearest_algorithm.h"
#include "mech/key_value_map.h"
#include "mech/local_search.h"
#include "mech/prefix_dir.h"
#include "mech/topology_space.h"
#include "mech/ucl.h"

namespace np::mech {

enum class Mechanism {
  kUcl,
  kPrefix,
  kMulticast,
  kRegistry,
};

const char* MechanismName(Mechanism mechanism);

class HybridNearest final : public core::NearestPeerAlgorithm {
 public:
  /// Stop (skip the fallback) once a candidate at most this far is
  /// found — "the closest peer is in the same end-network" territory.
  static constexpr LatencyMs kAcceptThresholdMs = 1.0;
  /// Probe at most this many mechanism candidates per query.
  static constexpr int kMaxProbeCandidates = 64;
  /// UCL-only: discard candidates whose embedded-latency estimate
  /// exceeds this (the paper's false-positive filter).
  static constexpr LatencyMs kUclMaxEstimateMs = 20.0;
  /// Prefix-only: the fixed prefix length.
  static constexpr int kPrefixBits = 24;
  /// Registry-only: deployment probability per end-network.
  static constexpr double kRegistryDeployProb = 0.5;
  /// Registry-only: end-networks with at least this many hosts deploy
  /// a registry at twice kRegistryDeployProb (capped at 1).
  static constexpr int kRegistryLargeNetworkHosts = 8;

  /// `fallback` may be null: mechanism-only operation (used to measure
  /// a mechanism's own hit rate).
  HybridNearest(const net::Topology& topology, Mechanism mechanism,
                std::unique_ptr<core::NearestPeerAlgorithm> fallback);

  /// Deep copy for snapshot clones: the map is copied, the directories
  /// are copy-rebound onto the clone's map, and the fallback is cloned
  /// through its own Clone() (so the fallback must support snapshots
  /// for the copy to succeed).
  HybridNearest(const HybridNearest& other);

  std::string name() const override;

  void Build(const core::LatencySpace& space, std::vector<NodeId> members,
             util::Rng& rng) override;

  /// Incremental membership (the last rebuild-billed family): a joiner
  /// registers with the active mechanism directory — a UCL/prefix
  /// publish into the key-value map, or an end-network listing — and a
  /// leaver withdraws its entries, O(its own mappings) instead of a
  /// from-scratch re-registration of the whole overlay per epoch. The
  /// inner algorithm's own churn handling rides along; hybrids over a
  /// churn-free fallback still rebuild.
  bool SupportsChurn() const override {
    return fallback_ == nullptr || fallback_->SupportsChurn();
  }
  void AddMember(NodeId node, util::Rng& rng) override;
  void RemoveMember(NodeId node) override;

  core::QueryResult FindNearest(NodeId target,
                                const core::MeteredSpace& metered,
                                util::Rng& rng) override;

  /// The fallback algorithm probes under the same retry contract as
  /// the hybrid's own candidate loop.
  void AttachProbePolicy(const core::ProbePolicy* policy) override;

  /// The query path only reads overlay state; the query and
  /// mechanism-hit tallies it bumps are relaxed atomics, so concurrent
  /// queries are safe whenever the fallback's are.
  bool ParallelQuerySafe() const override {
    return fallback_ == nullptr || fallback_->ParallelQuerySafe();
  }

  /// Snapshot clones are supported when the fallback (if any) supports
  /// them; the mechanism side always deep-copies.
  bool SupportsSnapshot() const override {
    return fallback_ == nullptr || fallback_->SupportsSnapshot();
  }
  std::unique_ptr<core::NearestPeerAlgorithm> Clone() const override;

  const std::vector<NodeId>& members() const override {
    return members_.members();
  }

  /// Fraction of queries answered by the mechanism alone (no fallback).
  double mechanism_hit_rate() const;

 private:
  const net::Topology* topology_;
  Mechanism mechanism_;
  std::unique_ptr<core::NearestPeerAlgorithm> fallback_;
  PerfectMap map_;
  std::unique_ptr<UclDirectory> ucl_;
  std::unique_ptr<PrefixDirectory> prefix_;
  std::unique_ptr<MulticastBootstrap> multicast_;
  std::unique_ptr<EndNetworkRegistry> registry_;
  core::MemberIndex members_;
  /// Stream for churn-time directory operations; forked from the Build
  /// rng so runs stay a pure function of the seed. RemoveMember has no
  /// rng parameter by design — leaves consume from here.
  util::Rng churn_rng_{0};
  /// Bumped inside the (otherwise read-only) query path; relaxed
  /// atomics so concurrent queries can share the overlay.
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> mechanism_hits_{0};
};

}  // namespace np::mech
