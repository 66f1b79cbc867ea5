#include "core/query_batch.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <utility>

#include "core/probe_stack.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace np::core {

std::vector<double> ZipfCdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double cum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cum += std::pow(static_cast<double>(i + 1), -s);
    cdf[i] = cum;
  }
  for (double& c : cdf) {
    c /= cum;
  }
  return cdf;
}

std::size_t ZipfIndex(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  const auto idx = static_cast<std::size_t>(it - cdf.begin());
  return std::min(idx, cdf.size() - 1);
}

MemberDelta::MemberDelta(const std::vector<NodeId>& prev,
                         const std::vector<NodeId>& next, NodeId num_nodes)
    : live_(static_cast<std::size_t>(num_nodes), false) {
  std::vector<bool> was(live_.size(), false);
  for (const NodeId m : prev) {
    was[static_cast<std::size_t>(m)] = true;
  }
  for (const NodeId m : next) {
    live_[static_cast<std::size_t>(m)] = true;
    if (!was[static_cast<std::size_t>(m)]) {
      joined_.push_back(m);
    }
  }
}

namespace {

/// Fills the reachable answer of `truth`, whose `closest` is already
/// scored. A closest member on the target's side beats every member
/// there too; otherwise the answer is the closest of `seed` (a member
/// on that side, or kInvalidNode) and the `candidates` on that side.
void ScoreReachable(const LatencySpace& space, NodeId target,
                    const matrix::PartitionWindow& window, NodeId seed,
                    std::span<const NodeId> candidates, TargetTruth& truth,
                    std::vector<NodeId>& scratch) {
  const int side = matrix::ComponentOf(window, target);
  if (truth.closest != kInvalidNode &&
      matrix::ComponentOf(window, truth.closest) == side) {
    truth.reachable = truth.closest;
    truth.reachable_latency = truth.closest_latency;
    return;
  }
  scratch.clear();
  if (seed != kInvalidNode) {
    scratch.push_back(seed);
  }
  for (const NodeId m : candidates) {
    if (matrix::ComponentOf(window, m) == side) {
      scratch.push_back(m);
    }
  }
  truth.reachable = space.ClosestOf(target, scratch, &truth.reachable_latency);
}

}  // namespace

TargetTruth ScanTruth(const LatencySpace& space,
                      const std::vector<NodeId>& members, NodeId target,
                      const matrix::PartitionWindow* window) {
  NP_ENSURE(!members.empty(), "no members");
  TargetTruth truth;
  truth.closest = space.ClosestOf(target, members, &truth.closest_latency);
  if (window != nullptr) {
    std::vector<NodeId> side;
    ScoreReachable(space, target, *window, kInvalidNode, members, truth, side);
  }
  return truth;
}

std::optional<TargetTruth> TruthMemo::Carry(const LatencySpace& space,
                                            NodeId target,
                                            const TruthMemo& prev,
                                            const MemberDelta& delta) {
  const TargetTruth* old = prev.Find(target);
  if (old == nullptr || old->closest == kInvalidNode ||
      !delta.Live(old->closest)) {
    return std::nullopt;
  }
  if (window_ != nullptr &&
      (window_ != prev.window_ ||
       (old->reachable != kInvalidNode && !delta.Live(old->reachable)))) {
    return std::nullopt;
  }
  TargetTruth truth;
  scratch_.assign(1, old->closest);
  scratch_.insert(scratch_.end(), delta.joined().begin(),
                  delta.joined().end());
  truth.closest = space.ClosestOf(target, scratch_, &truth.closest_latency);
  if (window_ != nullptr) {
    ScoreReachable(space, target, *window_, old->reachable, delta.joined(),
                   truth, scratch_);
  }
  return truth;
}

const TargetTruth& TruthMemo::Get(const LatencySpace& space,
                                  const std::vector<NodeId>& members,
                                  NodeId target,
                                  const matrix::PartitionWindow* window,
                                  const TruthMemo* prev,
                                  const MemberDelta* delta) {
  window_ = window;
  const auto it = by_target_.find(target);
  if (it != by_target_.end()) {
    return it->second;
  }
  std::optional<TargetTruth> truth;
  if (prev != nullptr && delta != nullptr) {
    truth = Carry(space, target, *prev, *delta);
  }
  if (!truth) {
    truth = ScanTruth(space, members, target, window);
  }
  return by_target_.emplace(target, *truth).first->second;
}

const TargetTruth* TruthMemo::Find(NodeId target) const {
  const auto it = by_target_.find(target);
  return it == by_target_.end() ? nullptr : &it->second;
}

QueryOutcome RunBatchQuery(const QueryBatch& batch, NearestPeerAlgorithm& algo,
                           ProbeStack& stack, std::size_t q, TruthMemo& memo,
                           const TruthMemo* prev) {
  const std::vector<NodeId>& pool = *batch.pool;
  // Every stream of query q is seeded here from the batch's bases, so
  // the answer does not depend on which query the stack served before.
  const auto qi = static_cast<std::uint64_t>(q);
  util::Rng qrng(batch.query_base ^ qi);
  stack.Reseed(ProbeSeeds{batch.noise_base ^ qi, batch.partition_base ^ qi,
                          batch.fault_base ^ qi});
  const MeteredSpace& metered = stack.metered();
  // The uniform path must keep the exact pre-fault draw (Index, not
  // NextDouble) for byte-identity at zipf 0.
  const bool uniform = batch.zipf_cdf == nullptr || batch.zipf_cdf->empty();
  const NodeId target =
      uniform ? pool[qrng.Index(pool.size())]
              : pool[ZipfIndex(*batch.zipf_cdf, qrng.NextDouble())];
  // Scored before the algorithm runs: a first sighting's scan loads
  // the sparse backend's LRU row for `target` just ahead of the
  // algorithm's probes to it (see ARCHITECTURE.md, truth memo).
  const TargetTruth& truth =
      memo.Get(*batch.space, *batch.members, target, batch.active_window, prev,
               batch.delta);

  const QueryResult result = algo.Query(target, metered, qrng);
  if (!batch.fault_mode) {
    NP_ENSURE(result.found != kInvalidNode, "algorithm returned no peer");
  }

  QueryOutcome out;
  out.target = target;
  out.found = result.found;
  out.failed = result.found == kInvalidNode;
  out.probes = metered.probes();
  out.truth_latency = truth.closest_latency;
  if (!out.failed) {
    out.hops = result.hops;
    out.found_latency = batch.space->Latency(result.found, target);
    out.exact = out.found_latency <= out.truth_latency + kTieEpsilonMs;
    if (batch.layout != nullptr) {
      out.correct_cluster = batch.layout->SameCluster(result.found, target);
      out.same_net = batch.layout->SameNet(result.found, target);
    }
  }
  // Nearest-reachable scoring: identical to `exact` in whole epochs,
  // restricted to the target's component under a partition window.
  out.exact_reachable = out.exact;
  if (batch.active_window != nullptr) {
    const matrix::PartitionWindow& window = *batch.active_window;
    out.target_component = matrix::ComponentOf(window, target);
    if (truth.reachable == kInvalidNode) {
      // No member shares the target's component: the only correct
      // answer is an honest failure.
      out.exact_reachable = out.failed;
    } else if (out.failed ||
               matrix::ComponentOf(window, result.found) !=
                   out.target_component) {
      out.exact_reachable = false;
    } else {
      out.exact_reachable =
          out.found_latency <= truth.reachable_latency + kTieEpsilonMs;
    }
  }
  return out;
}

QueryRange ChunkRange(std::size_t queries, std::size_t chunks,
                      std::size_t chunk) {
  const std::size_t size = (queries + chunks - 1) / chunks;
  const std::size_t begin = std::min(chunk * size, queries);
  return QueryRange{begin, std::min(begin + size, queries)};
}

void RunQueryChunk(const QueryBatch& batch, NearestPeerAlgorithm& algo,
                   std::size_t chunk, std::size_t chunks, TruthMemo& memo,
                   std::vector<QueryOutcome>& outcomes,
                   const std::function<void(std::size_t)>& after_query,
                   const TruthMemo* prev) {
  const QueryRange range = ChunkRange(outcomes.size(), chunks, chunk);
  // One stack for the whole chunk: its noise, grey and loss trackers
  // are stateful, so it is chunk-private (RunBatchQuery reseeds it per
  // query); the partition layer is pinned at the batch's epoch.
  ProbeStack stack(*batch.space,
                   ProbeFaults{batch.noise_frac, batch.noise_floor_ms,
                               batch.loss_rate, batch.partition},
                   ProbeSeeds{}, batch.crashed, batch.ledger);
  if (matrix::PartitionedSpace* partitioned = stack.partition()) {
    partitioned->set_epoch(batch.epoch);
  }
  for (std::size_t q = range.begin; q < range.end; ++q) {
    outcomes[q] = RunBatchQuery(batch, algo, stack, q, memo, prev);
    if (after_query) {
      after_query(q);
    }
  }
}

std::vector<QueryOutcome> RunQueryBatch(const QueryBatch& batch,
                                        NearestPeerAlgorithm& algo,
                                        int num_threads, std::size_t queries,
                                        std::vector<TruthMemo>* memos) {
  const int threads =
      algo.ParallelQuerySafe() ? util::ResolveThreadCount(num_threads) : 1;
  std::vector<QueryOutcome> outcomes(queries);
  const std::size_t chunks =
      std::min(static_cast<std::size_t>(threads), outcomes.size());
  const bool carry = memos != nullptr && memos->size() == chunks;
  std::vector<TruthMemo> fresh(chunks);
  util::ParallelFor(0, chunks, threads, [&](std::size_t c) {
    RunQueryChunk(batch, algo, c, chunks, fresh[c], outcomes, {},
                  carry ? &(*memos)[c] : nullptr);
  });
  if (memos != nullptr) {
    *memos = std::move(fresh);
  }
  return outcomes;
}

void ReduceQueryOutcomes(const std::vector<QueryOutcome>& outcomes,
                         EpochReport& er, std::uint64_t* failed_queries) {
  std::int64_t exact = 0;
  std::int64_t exact_reachable = 0;
  std::int64_t correct_cluster = 0;
  std::int64_t same_net = 0;
  std::int64_t answered = 0;
  double total_latency = 0.0;
  double total_hops = 0.0;
  std::uint64_t total_probes = 0;
  std::vector<double> excess;
  excess.reserve(outcomes.size());
  for (const QueryOutcome& out : outcomes) {
    total_probes += out.probes;
    // Counted before the failed-query skip: an honest failure on an
    // unreachable target is the *correct* reachable outcome.
    exact_reachable += out.exact_reachable ? 1 : 0;
    if (out.failed) {
      // Failed queries count against p_exact and messages/query but
      // contribute no latency/hops samples (there is no answer to
      // measure).
      continue;
    }
    ++answered;
    exact += out.exact ? 1 : 0;
    correct_cluster += out.correct_cluster ? 1 : 0;
    same_net += out.same_net ? 1 : 0;
    total_latency += out.found_latency;
    total_hops += out.hops;
    // >= 0: the true closest is the minimum over members, and found
    // is a member. Exact answers contribute 0.
    excess.push_back(out.found_latency - out.truth_latency);
  }
  const std::int64_t queries = static_cast<std::int64_t>(outcomes.size());
  const double n = static_cast<double>(queries);
  er.p_exact_closest = static_cast<double>(exact) / n;
  er.p_exact_reachable = static_cast<double>(exact_reachable) / n;
  er.p_correct_cluster = static_cast<double>(correct_cluster) / n;
  er.p_same_net = static_cast<double>(same_net) / n;
  er.p_query_failed = static_cast<double>(queries - answered) / n;
  if (failed_queries != nullptr) {
    *failed_queries += static_cast<std::uint64_t>(queries - answered);
  }
  // Divisor: with no faults answered == n, so these stay bit-equal
  // to the historical divide-by-n.
  const double na = answered > 0 ? static_cast<double>(answered) : 1.0;
  er.mean_found_latency_ms = total_latency / na;
  er.mean_hops = total_hops / na;
  er.messages_per_query = static_cast<double>(total_probes) / n;
  if (!excess.empty()) {
    std::sort(excess.begin(), excess.end());
    er.excess_latency_p50_ms = util::PercentileSorted(excess, 50.0);
    er.excess_latency_p95_ms = util::PercentileSorted(excess, 95.0);
    er.excess_latency_p99_ms = util::PercentileSorted(excess, 99.0);
  }
}

std::vector<EpochReport::ComponentStats> SplitByComponent(
    const std::vector<QueryOutcome>& outcomes,
    const std::vector<NodeId>& members,
    const matrix::PartitionWindow& window) {
  // Ordered map: the report lists components by id, not hash order.
  std::map<int, EpochReport::ComponentStats> split;
  for (const NodeId m : members) {
    EpochReport::ComponentStats& c = split[matrix::ComponentOf(window, m)];
    ++c.members;
  }
  for (const QueryOutcome& out : outcomes) {
    EpochReport::ComponentStats& c = split[out.target_component];
    ++c.queries;
    if (out.failed) {
      ++c.failed_queries;
    }
  }
  std::vector<EpochReport::ComponentStats> out;
  out.reserve(split.size());
  for (auto& [component, stats] : split) {
    stats.component = component;
    out.push_back(stats);
  }
  return out;
}

}  // namespace np::core
