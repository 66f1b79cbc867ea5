// Network-coordinate nearest-peer algorithms: the post-2008
// alternative the paper could not evaluate (§2.2 discusses the
// embedding substrate; Vivaldi = Dabek et al. SIGCOMM'04, PIC = Costa
// et al. ICDCS'04, landmark/GNP = Ng & Zhang INFOCOM'02). Each member
// carries an O(dims) coordinate; nearest-peer = nearest in coordinate
// space, *verified by real billed probes* (top-k candidate
// refinement). These are full NearestPeerAlgorithms and the repo's
// only coordinate implementation: coordinate training, joins,
// departures and keep-fresh gossip all flow through the attached
// ProbePolicy against the engine's metered maintenance space, so the
// honest maintenance price lands in the probe ledger next to the
// structured overlays'. ablation_condition and the §5 composite
// address read the trained coordinates through PredictedLatency.
//
// The paper's §2.2 prediction carries over: under the clustering
// condition all cluster peers collapse onto nearly identical
// coordinates, so coordinate-nearest candidate lists cannot separate
// the right end-network from the rest of the cluster — refinement
// probes then pay the price the coordinates saved.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/member_index.h"
#include "core/nearest_algorithm.h"

namespace np::algos {

/// Which coordinate substrate maintains the member coordinates.
enum class CoordScheme {
  /// Decentralized spring embedding over gossip rounds (Vivaldi).
  kVivaldi,
  /// Vivaldi coordinates + greedy walks over a sampled coordinate-kNN
  /// link graph (PIC): candidates come from walks, not a global scan.
  kPic,
  /// Fixed landmark set; every member positions itself against the
  /// landmarks only (GNP). Departing landmarks are re-elected.
  kLandmark,
};

/// "coord-vivaldi" | "coord-pic" | "coord-landmark".
std::string CoordSchemeName(CoordScheme scheme);

/// The settings callers change: the scheme, the dimension, and the
/// training schedule (tests shorten it). Every other parameter is a
/// CoordNearest constant.
struct CoordConfig {
  CoordScheme scheme = CoordScheme::kVivaldi;
  int dimensions = 3;
  /// Coarse-phase gossip rounds; each round every member probes one
  /// sampled gossip neighbor (billed — n probes per round). Lays out
  /// the global geometry over a random graph.
  int gossip_rounds = 384;
  /// Sharpening cycles after the coarse phase. Each cycle re-anchors
  /// half of every member's neighbor set to its coordinate-nearest
  /// candidates — discovered decentralized, from its neighbors'
  /// neighbors plus a random sample — then relaxes. Iterating cascades
  /// local accuracy down to nearest-peer scale: random far neighbors
  /// pin a coordinate to within the far-field residual, which is many
  /// times the distance to the true nearest peer; only springs to
  /// *close* neighbors shrink the local error below it (the Vivaldi
  /// paper's close-neighbor observation, applied iteratively).
  int sharpen_cycles = 8;
  /// Full-sweep relaxation rounds per sharpening cycle; every member
  /// probes each of its `kGossipNeighbors` neighbors per round
  /// (billed).
  int sharpen_rounds = 6;
  // --- kLandmark ---
  /// Landmark count (>= dimensions + 1 for a stable embedding).
  int num_landmarks = 12;
  /// Relaxation sweeps over the measured landmark pair list.
  int landmark_iterations = 128;
};

/// The three coordinate schemes behind one algorithm: per-member
/// coordinates in slot-parallel arrays over a MemberIndex, billed
/// training/join/gossip, read-only queries.
class CoordNearest final : public core::NearestPeerAlgorithm {
 public:
  /// Vivaldi adaptive-timestep / error-adaptation constants.
  static constexpr double kCe = 0.25;
  static constexpr double kCc = 0.25;
  /// Gossip-neighbor set size per member.
  static constexpr int kGossipNeighbors = 8;
  /// Random candidates mixed into each sharpening refresh alongside
  /// the neighbors-of-neighbors (free local computation over stored
  /// coordinates; only the relaxation probes are billed).
  static constexpr int kRefreshCandidates = 32;
  /// Billed probes a query target (or the placement half of a join)
  /// positions its coordinate from. The landmark scheme probes its
  /// landmarks instead.
  static constexpr int kPlacementSamples = 8;
  /// Local relaxation passes after placement measurements (free).
  static constexpr int kPlacementPasses = 32;
  /// Coordinate-nearest candidates verified by real billed probes.
  static constexpr int kRefineCandidates = 12;
  /// Billed probes a joiner bootstraps its coordinate from.
  static constexpr int kJoinSamples = 8;
  /// Billed keep-fresh gossip probes charged per churn event.
  static constexpr int kGossipProbesPerEvent = 2;
  // --- kPic ---
  /// Coordinate-nearest links kept per member.
  static constexpr int kWalkNeighbors = 8;
  /// Extra random escape links per member.
  static constexpr int kRandomLinks = 2;
  /// Sampled candidates the kNN links are chosen from (a decentralized
  /// node learns neighbors by sampling, not by a global scan — and it
  /// keeps link construction O(n * candidates) instead of O(n^2)).
  static constexpr int kLinkCandidates = 32;
  /// Independent greedy walks per query.
  static constexpr int kNumWalks = 4;
  /// Cap on walk length.
  static constexpr int kMaxWalkHops = 32;

  explicit CoordNearest(CoordConfig config);

  std::string name() const override { return CoordSchemeName(config_.scheme); }

  void Build(const core::LatencySpace& space, std::vector<NodeId> members,
             util::Rng& rng) override;

  /// Training is Jacobi-style: every round updates each member against
  /// a snapshot of the previous round's coordinates, from a
  /// per-(round,node) rng stream — disjoint writes, snapshot reads, so
  /// the parallel build is bit-identical to the serial one for every
  /// thread count (and update-order robust by construction).
  bool SupportsParallelBuild() const override { return true; }
  void ParallelBuild(const core::LatencySpace& space,
                     std::vector<NodeId> members, util::Rng& rng,
                     int num_threads) override;

  /// Incremental membership. A joiner bootstraps its coordinate from
  /// `kJoinSamples` billed probes (landmark scheme: probes the
  /// landmarks); a leaver's rows are purged O(1) via the member index.
  /// A departing *landmark* is replaced by the lowest-id non-landmark
  /// member, which measures the surviving landmarks (billed). Every
  /// churn event additionally charges `kGossipProbesPerEvent`
  /// keep-fresh gossip probes — the honest price of coordinates that
  /// stay accurate under churn.
  bool SupportsChurn() const override { return true; }
  void AddMember(NodeId node, util::Rng& rng) override;
  void RemoveMember(NodeId node) override;

  /// Query path audited read-only over overlay state (coordinates,
  /// links, landmark list): safe for concurrent per-query threads.
  bool ParallelQuerySafe() const override { return true; }

  core::QueryResult FindNearest(NodeId target,
                                const core::MeteredSpace& metered,
                                util::Rng& rng) override;

  const std::vector<NodeId>& members() const override {
    return members_.members();
  }

  /// All state is value-semantic (index, coordinate/error/link arrays,
  /// landmark list, churn rng) plus the borrowed immutable space, so a
  /// member-wise copy is a deep clone.
  bool SupportsSnapshot() const override { return true; }
  std::unique_ptr<core::NearestPeerAlgorithm> Clone() const override {
    return core::DetachedClone(std::make_unique<CoordNearest>(*this));
  }

  /// Coordinate of a current member (dimensions-sized span) — test and
  /// inspection hook.
  std::vector<double> CoordinateOf(NodeId node) const;

  /// Coordinate distance between two current members: the RTT the
  /// embedding predicts, with no probe issued.
  LatencyMs PredictedLatency(NodeId a, NodeId b) const;

  /// Current landmark set (kLandmark scheme; empty otherwise).
  const std::vector<NodeId>& landmarks() const { return landmarks_; }

 private:
  /// Shared construction path (Build = serial reference,
  /// num_threads = 1).
  void BuildImpl(const core::LatencySpace& space, std::vector<NodeId> members,
                 util::Rng& rng, int num_threads);

  /// Vivaldi gossip training (kVivaldi / kPic substrate).
  void TrainGossip(std::uint64_t base, int num_threads);

  /// Landmark training: embed the landmark set from billed pairwise
  /// probes, then position every other member against it (billed, one
  /// probe per landmark per member).
  void TrainLandmarks(std::uint64_t base, util::Rng& rng, int num_threads);

  /// Sampled coordinate-kNN + random links (kPic).
  void BuildLinks(std::uint64_t base, int num_threads);

  /// Re-embeds the landmark set from already-measured pairwise rtts.
  void RelaxLandmarks(const std::vector<double>& pair_rtt,
                      const std::vector<std::size_t>& landmark_slots,
                      util::Rng& rng);

  /// Positions a non-member coordinate from billed probes through
  /// `metered`. Returns false (and leaves `coordinate` meaningless)
  /// when every placement probe was lost.
  bool PlaceTarget(NodeId target, const core::MeteredSpace& metered,
                   util::Rng& rng, std::vector<double>& coordinate) const;

  /// `kPlacementPasses` local relaxation sweeps of `self` against the
  /// measured (slot, rtt) pairs — spring updates for the Vivaldi
  /// substrate, landmark relaxation for kLandmark.
  void RelaxAgainst(double* self, double& self_error,
                    const std::vector<std::pair<std::size_t, double>>&
                        measured,
                    util::Rng& rng) const;

  /// Sampled coordinate-kNN + random escape links for one slot (kPic).
  std::vector<NodeId> ComputeLinks(std::size_t slot, util::Rng& rng) const;

  /// Links for a (re)joining member: ComputeLinks plus capped reverse
  /// edges so walks can reach it.
  void LinkJoiner(std::size_t slot, util::Rng& rng);

  /// Billed keep-fresh gossip: `kGossipProbesPerEvent` sampled pair
  /// probes, each spring-relaxing one endpoint (landmark scheme:
  /// member-to-landmark refresh).
  void GossipRefresh(util::Rng& rng);

  double DistanceToSlot(const double* coordinate, std::size_t slot) const;

  CoordConfig config_;
  const core::LatencySpace* space_ = nullptr;
  core::MemberIndex members_;
  /// Row-major slot x dimensions, parallel to members().
  std::vector<double> coords_;
  /// Per-slot Vivaldi confidence (landmark scheme: fixed 0.2).
  std::vector<double> errors_;
  /// kLandmark: the current landmark ids (always live members).
  std::vector<NodeId> landmarks_;
  /// kPic: per-slot link lists storing node *ids* (stale entries from
  /// departures are filtered lazily at query time).
  std::vector<std::vector<NodeId>> links_;
  /// Stream for RemoveMember-side maintenance (no caller rng there);
  /// forked at Build, value-copied by Clone for replay identity.
  util::Rng churn_rng_{0};
};

}  // namespace np::algos
