// Per-query machinery shared by the deterministic scenario engine
// (core/scenario), the concurrent serving engine (core/serving) and
// the static §4 runners (core/experiment).
//
// Both engines must issue bit-identical queries — the serving mode's
// correctness oracle is "a snapshot pinned at epoch k answers exactly
// like serial replay at epoch k" — so the per-query RNG/noise/fault
// stream derivation, the target draw, the scoring and the serial
// reduction live here, in one place, instead of being duplicated.
//
// Determinism contract (the PR-1 `base ^ index` idiom): query q of an
// epoch derives every stream from per-epoch bases xor'ed with q, so
// outcomes are a pure function of (config seed, epoch, q) — invariant
// under thread count, execution order, and which engine ran them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "core/probe_counter.h"
#include "core/probe_stack.h"
#include "core/scenario.h"
#include "matrix/generators.h"
#include "matrix/partitioned_space.h"
#include "util/types.h"

namespace np::core {

/// Per-query record, reduced serially in query order (thread-count
/// invariance, as in the PR-1 experiment runners). `found`/`target`
/// ride along for the serving engine's staleness scoring.
struct QueryOutcome {
  LatencyMs found_latency = 0.0;
  LatencyMs truth_latency = 0.0;
  /// Messages the query sent: its probe stack's meter count, retry
  /// attempts and re-probes included. The one per-query cost count.
  std::uint64_t probes = 0;
  int hops = 0;
  bool exact = false;
  bool correct_cluster = false;
  bool same_net = false;
  /// Fault mode only: every probe path gave up, no peer returned.
  bool failed = false;
  /// Nearest *reachable* peer correctness: under an active partition
  /// window the truth is restricted to the target's component, and a
  /// target with no reachable member scores correct iff the query
  /// honestly failed. Equals `exact` when no window is active.
  bool exact_reachable = false;
  /// Component of the target under the active window (0 when whole).
  int target_component = 0;
  NodeId found = kInvalidNode;
  NodeId target = kInvalidNode;
};

/// Normalized CDF of Zipf weights 1/(r+1)^s over pool positions.
std::vector<double> ZipfCdf(std::size_t n, double s);
std::size_t ZipfIndex(const std::vector<double>& cdf, double u);

/// What changed in the membership between two consecutive epochs,
/// computed once per epoch by the engine: who joined, and who is live
/// now. It is what lets a truth memo carry the previous epoch's answers
/// instead of rescanning (see TruthMemo::Get).
class MemberDelta {
 public:
  /// `prev` and `next` are consecutive epochs' member lists over ids in
  /// [0, num_nodes).
  MemberDelta(const std::vector<NodeId>& prev, const std::vector<NodeId>& next,
              NodeId num_nodes);

  /// Members of `next` that are not in `prev`, in `next` order.
  const std::vector<NodeId>& joined() const { return joined_; }
  /// True iff `n` is a member of `next`.
  bool Live(NodeId n) const { return live_[static_cast<std::size_t>(n)]; }

 private:
  std::vector<NodeId> joined_;
  std::vector<bool> live_;
};

/// A found peer counts as exact when its latency to the target is within
/// this of the true closest member's (tie handling).
inline constexpr LatencyMs kTieEpsilonMs = 1e-9;

/// Immutable inputs of one epoch's query batch. Pointers are borrowed
/// views owned by the engine (for serving, by the pinned snapshot);
/// nullable ones are marked.
struct QueryBatch {
  const LatencySpace* space = nullptr;
  /// Nullable: enables the clustered accuracy metrics.
  const matrix::ClusterLayout* layout = nullptr;
  /// Live membership the epoch answers against (ground truth).
  const std::vector<NodeId>* members = nullptr;
  /// Query-target pool.
  const std::vector<NodeId>* pool = nullptr;
  /// Nullable: dead peers whose probes always fail.
  const std::unordered_set<NodeId>* crashed = nullptr;
  /// Nullable/empty: uniform target draw (the exact pre-fault path).
  const std::vector<double>* zipf_cdf = nullptr;
  /// Nullable: per-node load attribution (deterministic mode only).
  PerNodeLedger* ledger = nullptr;
  double noise_frac = 0.0;
  double noise_floor_ms = 0.0;
  double loss_rate = 0.0;
  /// When false, a query returning no peer is a hard error.
  bool fault_mode = false;
  /// Nullable: correlated-fault plan. When set (and Any()), each
  /// chunk's ProbeStack carries a partition layer pinned at `epoch`,
  /// reseeded partition_base ^ q for query q.
  const matrix::PartitionSchedule* partition = nullptr;
  /// Nullable: the partition window active this epoch (drives the
  /// nearest-reachable scoring); nullptr when the population is whole.
  const matrix::PartitionWindow* active_window = nullptr;
  /// Nullable: the membership change since the previous epoch; set, it
  /// lets each chunk carry its previous memo's truth forward.
  const MemberDelta* delta = nullptr;
  int epoch = 0;
  /// Per-epoch stream bases; query q xors its index in.
  std::uint64_t query_base = 0;
  std::uint64_t noise_base = 0;
  std::uint64_t fault_base = 0;
  std::uint64_t partition_base = 0;
};

/// Ground truth for one target against one epoch's membership, on
/// clean latencies. Both answers skip a member equal to the target and
/// break latency ties toward the lowest id, so `closest` is exactly
/// TrueClosestMember.
struct TargetTruth {
  NodeId closest = kInvalidNode;
  LatencyMs closest_latency = kInfiniteLatency;
  /// Closest member of the target's component under the active
  /// partition window; kInvalidNode when the component holds no member
  /// or no window is active.
  NodeId reachable = kInvalidNode;
  LatencyMs reachable_latency = kInfiniteLatency;
};

/// Scores `target` against all of `members` (space.ClosestOf); `window`
/// (nullable) adds the nearest-reachable answer, which is `closest`
/// itself whenever that sits on the target's side.
TargetTruth ScanTruth(const LatencySpace& space,
                      const std::vector<NodeId>& members, NodeId target,
                      const matrix::PartitionWindow* window);

/// Exact memo of TargetTruth by target for one epoch and one contiguous
/// chunk of query indices. Zipf targets repeat within an epoch and
/// membership does not change, so only the first query for a target
/// pays for its truth. A memo is used by one thread and never iterated,
/// so it needs no lock and its contents never reach a report.
///
/// That first query need not rescan either. When `prev` (the same
/// chunk's memo of the previous epoch) scored the target and its
/// closest member is still live, every other member that stayed lost
/// to it, or tied it with a higher id; so the new closest is the
/// closest of {previous closest} and `delta->joined()`. The same holds
/// for the reachable answer while the partition window is unchanged.
/// Anything else — the previous closest (or, under a window, the
/// previous reachable answer) left, or the window opened, closed or
/// changed — is rescanned in full.
class TruthMemo {
 public:
  /// The truth for `target`, computed on first use: carried from
  /// `prev` across `delta` when both are set and the rule above allows,
  /// scanned otherwise. Every call on one memo must pass the same
  /// epoch's space, members, window, prev and delta.
  const TargetTruth& Get(const LatencySpace& space,
                         const std::vector<NodeId>& members, NodeId target,
                         const matrix::PartitionWindow* window,
                         const TruthMemo* prev = nullptr,
                         const MemberDelta* delta = nullptr);
  /// The stored truth, or nullptr when `target` was never scored.
  const TargetTruth* Find(NodeId target) const;

 private:
  std::optional<TargetTruth> Carry(const LatencySpace& space, NodeId target,
                                   const TruthMemo& prev,
                                   const MemberDelta& delta);

  std::unordered_map<NodeId, TargetTruth> by_target_;
  /// The partition window every entry was scored under.
  const matrix::PartitionWindow* window_ = nullptr;
  /// Candidate buffer for carries, reused across targets.
  std::vector<NodeId> scratch_;
};

/// Runs query `q` of the batch against `algo` (through its attached
/// probe policy) and returns the scored outcome, reading the
/// target's truth through `memo` (carried from `prev` across
/// batch.delta when both are set). `stack` is built from the batch
/// (its faults, crashed set, ledger and epoch); the call first reseeds
/// it {noise_base ^ q, partition_base ^ q, fault_base ^ q}, so whatever
/// it served before, the query sees a fresh stack's state.
/// Thread-safe for ParallelQuerySafe algorithms when each thread owns
/// its memo and stack: the query's rng is private to the call.
QueryOutcome RunBatchQuery(const QueryBatch& batch, NearestPeerAlgorithm& algo,
                           ProbeStack& stack, std::size_t q, TruthMemo& memo,
                           const TruthMemo* prev = nullptr);

/// Half-open range [begin, end) of query indices.
struct QueryRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Chunk `chunk` of the static contiguous split of `queries` indices
/// into `chunks` slices (the split util::ParallelFor makes).
QueryRange ChunkRange(std::size_t queries, std::size_t chunks,
                      std::size_t chunk);

/// The per-worker query loop both engines share: runs chunk `chunk` of
/// `chunks` in query order into `outcomes[q]`, with `memo` and one
/// probe stack, reseeded per query, private to the chunk.
/// `after_query` (optional) runs after each query; serving uses it to
/// time the service wall clock. `prev` (nullable) is the
/// same chunk's memo from the previous epoch, which must not be
/// written while this chunk runs.
void RunQueryChunk(const QueryBatch& batch, NearestPeerAlgorithm& algo,
                   std::size_t chunk, std::size_t chunks, TruthMemo& memo,
                   std::vector<QueryOutcome>& outcomes,
                   const std::function<void(std::size_t)>& after_query = {},
                   const TruthMemo* prev = nullptr);

/// Runs a whole batch of `queries` on up to `num_threads` workers (0 =
/// hardware_concurrency; 1 for algorithms that are not
/// ParallelQuerySafe): one RunQueryChunk per worker, each with a fresh
/// memo. Outcomes are in query order and thread-count invariant.
/// `memos` (nullable) links consecutive epochs: on entry it holds the
/// previous epoch's memo per chunk, carried from when batch.delta is
/// set and the chunk count is unchanged; on return, this epoch's.
std::vector<QueryOutcome> RunQueryBatch(
    const QueryBatch& batch, NearestPeerAlgorithm& algo, int num_threads,
    std::size_t queries, std::vector<TruthMemo>* memos = nullptr);

/// Serially reduces a batch's outcomes — in query order — into the
/// query-section fields of `er` (accuracy, latency tail, messages per
/// query). Adds this epoch's failed-query count to `failed_queries`,
/// and charges the queries and their metered probes to `counter`, when
/// non-null: the engines' one account of query traffic.
void ReduceQueryOutcomes(const std::vector<QueryOutcome>& outcomes,
                         EpochReport& er, std::uint64_t* failed_queries,
                         ProbeCounter* counter);

/// Per-component membership/query split for one partitioned epoch,
/// ordered by component id (deterministic). Load Gini is left zero for
/// the caller to fill under track_load.
std::vector<EpochReport::ComponentStats> SplitByComponent(
    const std::vector<QueryOutcome>& outcomes,
    const std::vector<NodeId>& members, const matrix::PartitionWindow& window);

}  // namespace np::core
