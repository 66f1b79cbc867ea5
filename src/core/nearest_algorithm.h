// Common interface implemented by every nearest-peer scheme in this
// repository (Meridian, Karger-Ruhl, Tapestry-style, Tiers, Beaconing,
// PIC-style coordinate walks, and the §5 hybrids), mirroring the
// paper's framing: "A search for the closest peer ... starts off from a
// random peer, selects among the neighbors of those peers to find
// closer peers, recursing until it discovers (ideally) the desired
// closest peer."
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/latency_space.h"
#include "core/member_index.h"
#include "core/probe_policy.h"
#include "util/rng.h"
#include "util/types.h"

namespace np::core {

class ProbeCounter;

/// Outcome of a single closest-peer query.
struct QueryResult {
  /// The overlay member the algorithm returned (kInvalidNode if the
  /// algorithm failed to return anything — never expected).
  NodeId found = kInvalidNode;
  /// Latency from the target to `found`, ms.
  LatencyMs found_latency_ms = kInfiniteLatency;
  /// Overlay forwarding hops the query traversed.
  int hops = 0;
  /// Latency probes issued while resolving this query.
  std::uint64_t probes = 0;
};

class NearestPeerAlgorithm {
 public:
  virtual ~NearestPeerAlgorithm() = default;

  /// Incremental membership (churn). Algorithms that maintain overlay
  /// state under joins/leaves override these; the default refuses, and
  /// callers can test support with SupportsChurn().
  virtual bool SupportsChurn() const { return false; }
  virtual void AddMember(NodeId node, util::Rng& rng);
  virtual void RemoveMember(NodeId node);

  /// Short identifier used in bench output.
  virtual std::string name() const = 0;

  /// True when FindNearest only reads overlay state, so the experiment
  /// runner may issue queries from multiple threads concurrently (each
  /// with its own Rng and MeteredSpace). Safe-by-default is the wrong
  /// default for data races, so this is opt-IN: the base returns
  /// false (the runner then clamps to one thread) and an algorithm
  /// declares itself parallel-safe only after auditing its query path
  /// for shared-state mutation (e.g. HybridNearest's mechanism-hit
  /// counters must stay serial).
  virtual bool ParallelQuerySafe() const { return false; }

  /// Builds overlay state over `members` (ids into `space`). The space
  /// must outlive the algorithm. Build-time probing is not metered —
  /// the paper's cost argument concerns query-time probes against a
  /// *new* target whose latencies cannot have been measured before.
  virtual void Build(const LatencySpace& space, std::vector<NodeId> members,
                     util::Rng& rng) = 0;

  /// True for the structured overlays whose one-shot build is worth
  /// timing and billing against Build; most of them fan ParallelBuild
  /// out over worker threads (the base falls back to the serial Build).
  virtual bool SupportsParallelBuild() const { return false; }

  /// Batch-parallel construction. Same contract as Build plus a
  /// determinism guarantee: on a deterministic, thread-safe space the
  /// resulting overlay state — and every metric derived from it — is
  /// bit-identical to the serial Build for every `num_threads`
  /// (0 = hardware_concurrency). Overriders achieve this with
  /// ParallelFor over members and per-member RNG streams
  /// `Mix64(base ^ node)`; Build remains the serial reference
  /// (ParallelBuild(..., 1) runs the identical code inline).
  ///
  /// Callers own thread safety of `space`: a NoisySpace is stateful and
  /// must only be passed with one thread (the scenario engine clamps).
  virtual void ParallelBuild(const LatencySpace& space,
                             std::vector<NodeId> members, util::Rng& rng,
                             int num_threads);

  /// Finds the member closest to `target`. `target` is usually not a
  /// member (the paper keeps 100 targets out of the overlay). Probes
  /// issued against the target must go through `metered` so they are
  /// charged to the query.
  virtual QueryResult FindNearest(NodeId target, const MeteredSpace& metered,
                                  util::Rng& rng) = 0;

  /// FindNearest plus probe accounting: the metered-probe delta of the
  /// query (every message, including re-probes of the same pair) and
  /// the query itself are charged to the attached ProbeCounter. All
  /// experiment runners issue queries through this wrapper; algorithms
  /// override FindNearest only.
  QueryResult Query(NodeId target, const MeteredSpace& metered,
                    util::Rng& rng);

  /// Attaches (or detaches, with nullptr) the ledger charged by
  /// Query(). The counter must outlive the algorithm or be detached
  /// first; it is shared, thread-safe state owned by the caller.
  void AttachProbeCounter(ProbeCounter* counter) { probe_counter_ = counter; }
  ProbeCounter* probe_counter() const { return probe_counter_; }

  /// Attaches (or detaches, with nullptr) the retry policy every
  /// build/join/repair/query probe is routed through. With none
  /// attached, probe_policy() is the single-attempt default — byte-for-
  /// byte the pre-fault behavior. Virtual so wrapper algorithms (the
  /// hybrids) can propagate the policy to their inner fallback.
  virtual void AttachProbePolicy(const ProbePolicy* policy) {
    probe_policy_ = policy;
  }
  const ProbePolicy& probe_policy() const {
    return probe_policy_ != nullptr ? *probe_policy_ : ProbePolicy::Default();
  }

  /// Members the overlay was built over.
  virtual const std::vector<NodeId>& members() const = 0;

  /// True when Clone() produces a deep, independent copy of the
  /// overlay state (the serving engine's snapshot capability). Opt-in
  /// like ParallelQuerySafe: an algorithm declares support only after
  /// auditing that its copied state shares nothing mutable with the
  /// original (borrowed LatencySpace/Topology pointers are fine —
  /// those are immutable for the overlay's lifetime).
  virtual bool SupportsSnapshot() const { return false; }

  /// Deep copy of the built overlay state, with the probe counter and
  /// probe policy DETACHED (those are caller-owned wiring, not overlay
  /// state; the serving engine attaches its own per-snapshot pair).
  /// Queries against the clone answer bit-identically to queries
  /// against the original at clone time, and mutations of either side
  /// never affect the other. The default refuses; callers test with
  /// SupportsSnapshot().
  virtual std::unique_ptr<NearestPeerAlgorithm> Clone() const;

 private:
  ProbeCounter* probe_counter_ = nullptr;
  const ProbePolicy* probe_policy_ = nullptr;
};

/// Clone() helper: a copy-constructed clone inherits the original's
/// counter/policy pointers; per the Clone contract those are detached
/// before the clone is handed out.
inline std::unique_ptr<NearestPeerAlgorithm> DetachedClone(
    std::unique_ptr<NearestPeerAlgorithm> clone) {
  clone->AttachProbeCounter(nullptr);
  clone->AttachProbePolicy(nullptr);
  return clone;
}

/// Brute-force oracle: probes every member. Defines ground truth and
/// the upper bound on achievable accuracy.
class OracleNearest final : public NearestPeerAlgorithm {
 public:
  std::string name() const override { return "oracle"; }

  /// Pure scan over members_; no query-time state.
  bool ParallelQuerySafe() const override { return true; }

  /// Membership is the only overlay state, so churn is free.
  bool SupportsChurn() const override { return true; }
  void AddMember(NodeId node, util::Rng& rng) override;
  void RemoveMember(NodeId node) override;

  void Build(const LatencySpace& space, std::vector<NodeId> members,
             util::Rng& rng) override;

  QueryResult FindNearest(NodeId target, const MeteredSpace& metered,
                          util::Rng& rng) override;

  const std::vector<NodeId>& members() const override {
    return members_.members();
  }

  /// State is the member index plus a borrowed (immutable) space.
  bool SupportsSnapshot() const override { return true; }
  std::unique_ptr<NearestPeerAlgorithm> Clone() const override {
    return DetachedClone(std::make_unique<OracleNearest>(*this));
  }

 private:
  const LatencySpace* space_ = nullptr;
  MemberIndex members_;
};

/// Uniform random member — the floor every algorithm must beat.
class RandomNearest final : public NearestPeerAlgorithm {
 public:
  std::string name() const override { return "random"; }

  /// Only touches the per-query Rng and members_.
  bool ParallelQuerySafe() const override { return true; }

  /// Membership is the only overlay state, so churn is free.
  bool SupportsChurn() const override { return true; }
  void AddMember(NodeId node, util::Rng& rng) override;
  void RemoveMember(NodeId node) override;

  void Build(const LatencySpace& space, std::vector<NodeId> members,
             util::Rng& rng) override;

  QueryResult FindNearest(NodeId target, const MeteredSpace& metered,
                          util::Rng& rng) override;

  const std::vector<NodeId>& members() const override {
    return members_.members();
  }

  /// State is just the member index.
  bool SupportsSnapshot() const override { return true; }
  std::unique_ptr<NearestPeerAlgorithm> Clone() const override {
    return DetachedClone(std::make_unique<RandomNearest>(*this));
  }

 private:
  MemberIndex members_;
};

/// True closest member to `target` (space.ClosestOf: every member
/// considered, unmetered). Ties broken by lower id.
NodeId TrueClosestMember(const LatencySpace& space,
                         const std::vector<NodeId>& members, NodeId target);

}  // namespace np::core
