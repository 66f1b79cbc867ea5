// Beaconing (Kommareddy et al., ICNP'01; paper §6): a handful of
// beacon servers remember their latency to every peer. A joining peer
// is measured by each beacon; each beacon returns the peers at about
// the same latency to itself as the joiner, and the joiner probes the
// candidates (peers nominated by all — or most — beacons).
//
// §6 predicts failure under clustering: "most peers in the same
// cluster but different end-networks [have] almost identical latencies
// to all the beacon servers ... impossible to tell apart".
#pragma once

#include <memory>
#include <vector>

#include "core/member_index.h"
#include "core/nearest_algorithm.h"

namespace np::algos {

struct BeaconingConfig {
  /// Cap on candidates probed per query (closest-estimate first).
  int max_probe_candidates = 64;
};

class BeaconingNearest final : public core::NearestPeerAlgorithm {
 public:
  static constexpr int kNumBeacons = 8;
  /// A beacon nominates peer m for target t when
  /// |lat(b,m) - lat(b,t)| <= max(kBandAbsMs, kBandRel * lat(b,t)).
  static constexpr double kBandAbsMs = 1.0;
  static constexpr double kBandRel = 0.1;
  /// Require nominations from at least this fraction of beacons.
  static constexpr double kQuorum = 1.0;

  explicit BeaconingNearest(BeaconingConfig config);

  std::string name() const override { return "beaconing"; }

  void Build(const core::LatencySpace& space, std::vector<NodeId> members,
             util::Rng& rng) override;

  /// Beacon election stays serial (one cheap Sample); the latency
  /// table — each beacon's row over the whole membership — fills
  /// column-parallel under ParallelFor, no RNG involved, so the
  /// parallel build is trivially bit-identical to the serial one.
  bool SupportsParallelBuild() const override { return true; }
  void ParallelBuild(const core::LatencySpace& space,
                     std::vector<NodeId> members, util::Rng& rng,
                     int num_threads) override;

  /// Incremental membership: a joiner is measured once by every beacon
  /// (the scheme's join protocol); a leaver's column is dropped in
  /// O(#beacons) via the member index. A departing *beacon* is
  /// replaced by the lowest-id non-beacon member, which must measure
  /// its latency to the whole membership — the scheme's structural
  /// weak point under churn (billed O(overlay) probes, so the
  /// accompanying scan is already paid for).
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

  /// All state is value-semantic (index, beacon rows) plus the
  /// borrowed immutable space, so a member-wise copy is a deep clone.
  bool SupportsSnapshot() const override { return true; }
  std::unique_ptr<core::NearestPeerAlgorithm> Clone() const override {
    return core::DetachedClone(std::make_unique<BeaconingNearest>(*this));
  }

  const std::vector<NodeId>& beacons() const { return beacons_; }

 private:
  /// Shared construction path (Build = serial reference, num_threads
  /// = 1).
  void BuildImpl(const core::LatencySpace& space, std::vector<NodeId> members,
                 util::Rng& rng, int num_threads);

  /// Re-measures beacon `b`'s full latency row (beacon replacement).
  void MeasureBeaconRow(std::size_t b);

  BeaconingConfig config_;
  const core::LatencySpace* space_ = nullptr;
  core::MemberIndex members_;
  std::vector<NodeId> beacons_;
  /// beacon_latency_[b][m] = lat(beacons_[b], members()[m]).
  std::vector<std::vector<LatencyMs>> beacon_latency_;
};

}  // namespace np::algos
