// The per-epoch truth memo in the shared query kernel (core/query_batch):
// memoized outcomes must equal a fresh brute-force TrueClosestMember
// scoring of every query, field for field — under latency ties,
// repeated Zipf targets, membership that changes between epochs, and a
// partition window that leaves a target's component without members.
// A chunk's one probe stack, reused across its queries, must answer
// as a fresh stack per query, with every stateful probe layer in use.
// Truth carried from the previous epoch's memo across a MemberDelta
// must equal a full ScanTruth in every epoch of a long membership walk.
// The engine-level cases check the same through RunScenario/RunServing
// with the oracle, whose every answer is the true closest member, and
// pin serving staleness values recorded before truth was carried.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/churn.h"
#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "core/probe_policy.h"
#include "core/probe_stack.h"
#include "core/query_batch.h"
#include "core/scenario.h"
#include "core/serving.h"
#include "matrix/embedded_space.h"
#include "matrix/latency_matrix.h"
#include "matrix/partitioned_space.h"
#include "algos/karger_ruhl.h"
#include "util/rng.h"

namespace np::core {
namespace {

/// Forwards to `inner` and counts every call. Single-threaded use only.
class CountingSpace final : public LatencySpace {
 public:
  explicit CountingSpace(const LatencySpace& inner) : inner_(&inner) {}
  NodeId size() const override { return inner_->size(); }
  LatencyMs Latency(NodeId a, NodeId b) const override {
    ++calls_;
    return inner_->Latency(a, b);
  }
  std::uint64_t calls() const { return calls_; }

 private:
  const LatencySpace* inner_;
  mutable std::uint64_t calls_ = 0;
};

/// n nodes with i.i.d. symmetric latencies in [1, 100) ms.
matrix::LatencyMatrix RandomMatrix(NodeId n, std::uint64_t seed) {
  matrix::LatencyMatrix m(n);
  util::Rng rng(seed);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      m.Set(a, b, 1.0 + 99.0 * rng.NextDouble());
    }
  }
  return m;
}

QueryBatch MakeBatch(const LatencySpace& space,
                     const std::vector<NodeId>& members,
                     const std::vector<NodeId>& pool,
                     const std::vector<double>& zipf_cdf, int epoch) {
  QueryBatch batch;
  batch.space = &space;
  batch.members = &members;
  batch.pool = &pool;
  batch.zipf_cdf = &zipf_cdf;
  batch.epoch = epoch;
  const auto e = static_cast<std::uint64_t>(epoch);
  batch.query_base = util::Mix64(0x51ULL ^ e);
  batch.noise_base = util::Mix64(0x52ULL ^ e);
  batch.fault_base = util::Mix64(0x53ULL ^ e);
  batch.partition_base = util::Mix64(0x54ULL ^ e);
  return batch;
}

/// One epoch the way the engines run it: `chunks` contiguous chunks,
/// each with a fresh memo of its own.
std::vector<QueryOutcome> RunEpoch(const QueryBatch& batch,
                                   NearestPeerAlgorithm& algo,
                                   std::size_t queries, std::size_t chunks) {
  std::vector<QueryOutcome> outcomes(queries);
  std::vector<TruthMemo> memos(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    RunQueryChunk(batch, algo, c, chunks, memos[c], outcomes);
  }
  return outcomes;
}

void ExpectSameOutcome(const QueryOutcome& a, const QueryOutcome& b) {
  EXPECT_EQ(a.found_latency, b.found_latency);
  EXPECT_EQ(a.truth_latency, b.truth_latency);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.correct_cluster, b.correct_cluster);
  EXPECT_EQ(a.same_net, b.same_net);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.exact_reachable, b.exact_reachable);
  EXPECT_EQ(a.target_component, b.target_component);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.target, b.target);
}

/// Closest member of the target's component, by its own scan.
NodeId BruteForceReachable(const LatencySpace& space,
                           const std::vector<NodeId>& members, NodeId target,
                           const matrix::PartitionWindow& window) {
  const int component = matrix::ComponentOf(window, target);
  NodeId best = kInvalidNode;
  for (const NodeId m : members) {
    if (m == target || matrix::ComponentOf(window, m) != component) {
      continue;
    }
    if (best == kInvalidNode ||
        space.Latency(m, target) < space.Latency(best, target) ||
        (space.Latency(m, target) == space.Latency(best, target) &&
         m < best)) {
      best = m;
    }
  }
  return best;
}

/// A probe stack built for query `q` alone: the batch's faults,
/// crashed set, ledger and epoch, seeded {noise_base ^ q,
/// partition_base ^ q, fault_base ^ q}.
std::unique_ptr<ProbeStack> FreshStack(const QueryBatch& batch,
                                       std::size_t q) {
  const auto qi = static_cast<std::uint64_t>(q);
  auto stack = std::make_unique<ProbeStack>(
      *batch.space,
      ProbeFaults{batch.noise_frac, batch.noise_floor_ms, batch.loss_rate,
                  batch.partition},
      ProbeSeeds{batch.noise_base ^ qi, batch.partition_base ^ qi,
                 batch.fault_base ^ qi},
      batch.crashed, batch.ledger);
  if (matrix::PartitionedSpace* partitioned = stack->partition()) {
    partitioned->set_epoch(batch.epoch);
  }
  return stack;
}

/// Query `q` alone, on a fresh memo and a fresh stack.
QueryOutcome RunOnFreshStack(const QueryBatch& batch,
                             NearestPeerAlgorithm& algo, std::size_t q) {
  TruthMemo fresh;
  return RunBatchQuery(batch, algo, *FreshStack(batch, q), q, fresh);
}

/// Every memoized outcome, and every outcome of the batch rerun in 1
/// and in 3 chunks (one reseeded stack per chunk), must equal the same
/// query scored on a fresh memo and a fresh stack; and its truth fields
/// must agree with a brute-force TrueClosestMember (and reachable) scan
/// of that query alone.
void ExpectMatchesBruteForce(const QueryBatch& batch,
                             NearestPeerAlgorithm& algo,
                             const std::vector<QueryOutcome>& memoized) {
  const LatencySpace& space = *batch.space;
  std::vector<std::vector<QueryOutcome>> rechunked;
  for (const std::size_t chunks : {1, 3}) {
    rechunked.push_back(RunEpoch(batch, algo, memoized.size(), chunks));
  }
  for (std::size_t q = 0; q < memoized.size(); ++q) {
    SCOPED_TRACE(q);
    const QueryOutcome& out = memoized[q];
    const QueryOutcome fresh = RunOnFreshStack(batch, algo, q);
    ExpectSameOutcome(out, fresh);
    for (const std::vector<QueryOutcome>& outcomes : rechunked) {
      ExpectSameOutcome(outcomes[q], fresh);
    }

    const NodeId truth = TrueClosestMember(space, *batch.members, out.target);
    EXPECT_EQ(out.truth_latency, space.Latency(truth, out.target));
    if (!out.failed) {
      EXPECT_EQ(out.exact,
                out.found_latency <= out.truth_latency + kTieEpsilonMs);
    }
    if (batch.active_window == nullptr) {
      EXPECT_EQ(out.exact_reachable, out.exact);
      continue;
    }
    const matrix::PartitionWindow& window = *batch.active_window;
    const NodeId rtruth =
        BruteForceReachable(space, *batch.members, out.target, window);
    const int side = matrix::ComponentOf(window, out.target);
    bool expected = false;
    if (rtruth == kInvalidNode) {
      expected = out.failed;
    } else if (!out.failed && matrix::ComponentOf(window, out.found) == side) {
      const LatencyMs rtruth_latency = space.Latency(rtruth, out.target);
      expected = out.found_latency <= rtruth_latency + kTieEpsilonMs;
    }
    EXPECT_EQ(out.exact_reachable, expected);
  }
}

std::unique_ptr<NearestPeerAlgorithm> Built(
    std::unique_ptr<NearestPeerAlgorithm> algo, const LatencySpace& space,
    const std::vector<NodeId>& members) {
  util::Rng rng(11);
  algo->Build(space, members, rng);
  return algo;
}

// --- Ties ------------------------------------------------------------------

TEST(TruthMemo, EqualLatenciesBreakTowardLowestId) {
  // Every member sits at 10 ms from target 0 except 9, 6 and 4, which
  // tie at 2 ms; 4 must win. Under the window, 4 sits across the cut,
  // so the reachable answer is the lower of the remaining tie: 6.
  matrix::LatencyMatrix m(12, 10.0);
  m.Set(0, 9, 2.0);
  m.Set(0, 6, 2.0);
  m.Set(0, 4, 2.0);
  const MatrixSpace space(m);
  const std::vector<NodeId> members = {9, 6, 11, 4, 2};
  matrix::PartitionWindow window;
  window.component.assign(12, 0);
  window.component[4] = 1;

  const TargetTruth truth = ScanTruth(space, members, 0, &window);
  EXPECT_EQ(truth.closest, 4);
  EXPECT_EQ(truth.closest, TrueClosestMember(space, members, 0));
  EXPECT_EQ(truth.closest_latency, 2.0);
  EXPECT_EQ(truth.reachable, 6);
  EXPECT_EQ(truth.reachable_latency, 2.0);
  EXPECT_EQ(ScanTruth(space, members, 0, nullptr).reachable, kInvalidNode);

  // Pool {0, 1}: 1 ties at 10 ms with every member, so 2 must win.
  const std::vector<NodeId> pool = {0, 1};
  const std::vector<double> uniform;
  QueryBatch batch = MakeBatch(space, members, pool, uniform, 0);
  for (const bool windowed : {false, true}) {
    SCOPED_TRACE(windowed);
    batch.active_window = windowed ? &window : nullptr;
    for (const bool oracle : {true, false}) {
      SCOPED_TRACE(oracle ? "oracle" : "random");
      auto algo =
          oracle ? Built(std::make_unique<OracleNearest>(), space, members)
                 : Built(std::make_unique<RandomNearest>(), space, members);
      const std::vector<QueryOutcome> outcomes = RunEpoch(batch, *algo, 40, 2);
      ExpectMatchesBruteForce(batch, *algo, outcomes);
      if (oracle) {
        for (const QueryOutcome& out : outcomes) {
          EXPECT_EQ(out.found, out.target == 0 ? 4 : 2);
          EXPECT_TRUE(out.exact);
        }
      }
    }
  }
}

// --- Repeated Zipf targets -------------------------------------------------

TEST(TruthMemo, ZipfRepeatsScanEachTargetOncePerChunk) {
  const matrix::LatencyMatrix m = RandomMatrix(90, 7);
  const MatrixSpace backend(m);
  std::vector<NodeId> members;
  std::vector<NodeId> pool;
  for (NodeId n = 0; n < 90; ++n) {
    (n % 3 == 0 ? members : pool).push_back(n);
  }
  const std::vector<double> zipf = ZipfCdf(pool.size(), 1.0);
  constexpr std::size_t kQueries = 400;

  std::vector<QueryOutcome> single_chunk;
  for (const std::size_t chunks : {1, 2, 8}) {
    SCOPED_TRACE(chunks);
    const CountingSpace counting(backend);
    const QueryBatch batch = MakeBatch(counting, members, pool, zipf, 0);
    auto algo = Built(std::make_unique<RandomNearest>(), counting, members);
    const std::vector<QueryOutcome> outcomes =
        RunEpoch(batch, *algo, kQueries, chunks);
    const std::uint64_t calls = counting.calls();

    // Only the first query for a target in each chunk scans the
    // members; every query adds one probe and one found-latency call.
    std::uint64_t scans = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const QueryRange range = ChunkRange(kQueries, chunks, c);
      std::set<NodeId> distinct;
      for (std::size_t q = range.begin; q < range.end; ++q) {
        distinct.insert(outcomes[q].target);
      }
      EXPECT_LT(distinct.size(), range.end - range.begin)
          << "chunk " << c << " has no repeated target";
      scans += distinct.size();
    }
    EXPECT_EQ(calls, 2 * kQueries + scans * members.size());

    ExpectMatchesBruteForce(batch, *algo, outcomes);
    if (single_chunk.empty()) {
      single_chunk = outcomes;
    } else {
      for (std::size_t q = 0; q < kQueries; ++q) {
        SCOPED_TRACE(q);
        ExpectSameOutcome(outcomes[q], single_chunk[q]);
      }
    }
  }
}

// --- Stateful probe layers -------------------------------------------------

// Noise, probe loss with retries, grey nodes, one-way loss, a partition
// window and crashed members, with Zipf targets repeating inside every
// chunk: a chunk's one stack, reused across its queries, must leave no
// trace of a query in the next. Every outcome must also equal the
// algorithm queried directly, without RunBatchQuery, on a stack built
// with query q's seeds, and each of the three seed bases must move some
// outcome, so that comparison pins every layer's seed.
TEST(TruthMemo, LossyChunksMatchAFreshStackPerQuery) {
  const matrix::LatencyMatrix m = RandomMatrix(90, 7);
  const MatrixSpace space(m);
  std::vector<NodeId> members;
  std::vector<NodeId> pool;
  for (NodeId n = 0; n < 90; ++n) {
    (n % 3 == 0 ? members : pool).push_back(n);
  }
  const std::vector<double> zipf = ZipfCdf(pool.size(), 1.0);
  const std::unordered_set<NodeId> crashed = {3, 12};
  matrix::PartitionSchedule schedule;
  schedule.grey_node_frac = 0.3;
  schedule.grey_loss_rate = 0.5;
  schedule.grey_seed = 41;
  schedule.asymmetric_frac = 0.1;
  schedule.asym_seed = 42;
  matrix::PartitionWindow window;
  window.start_epoch = 0;
  window.end_epoch = 1;
  window.component.assign(90, 0);
  for (NodeId n = 75; n < 90; ++n) {
    window.component[static_cast<std::size_t>(n)] = 1;
  }
  schedule.windows.push_back(window);
  constexpr std::size_t kQueries = 240;

  QueryBatch batch = MakeBatch(space, members, pool, zipf, 0);
  batch.fault_mode = true;
  batch.noise_frac = 0.1;
  batch.noise_floor_ms = 0.5;
  batch.loss_rate = 0.2;
  batch.partition = &schedule;
  batch.active_window = &schedule.windows[0];
  batch.crashed = &crashed;
  ASSERT_TRUE(schedule.GreyActive());

  algos::KargerRuhlNearest algo{algos::KargerRuhlConfig{}};
  util::Rng build_rng(11);
  algo.Build(space, members, build_rng);
  const ProbePolicy policy(/*max_attempts=*/3);
  algo.AttachProbePolicy(&policy);

  const std::vector<QueryOutcome> outcomes = RunEpoch(batch, algo, kQueries, 2);
  ExpectMatchesBruteForce(batch, algo, outcomes);

  std::size_t failed = 0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    SCOPED_TRACE(q);
    const auto qi = static_cast<std::uint64_t>(q);
    util::Rng qrng(batch.query_base ^ qi);
    const NodeId target = pool[ZipfIndex(zipf, qrng.NextDouble())];
    const std::unique_ptr<ProbeStack> stack = FreshStack(batch, q);
    const QueryResult direct = algo.FindNearest(target, stack->metered(), qrng);
    EXPECT_EQ(outcomes[q].target, target);
    EXPECT_EQ(outcomes[q].found, direct.found);
    EXPECT_EQ(outcomes[q].probes, stack->metered().probes());
    if (direct.found != kInvalidNode) {
      EXPECT_EQ(outcomes[q].hops, direct.hops);
    }
    failed += outcomes[q].failed ? 1 : 0;
  }
  EXPECT_GT(failed, 0u);

  const auto moved = [&](std::uint64_t QueryBatch::*base) {
    QueryBatch shifted = batch;
    shifted.*base ^= 0x9e3779b97f4a7c15ULL;
    const std::vector<QueryOutcome> other =
        RunEpoch(shifted, algo, kQueries, 2);
    std::size_t differ = 0;
    for (std::size_t q = 0; q < kQueries; ++q) {
      differ += other[q].found != outcomes[q].found ||
                        other[q].probes != outcomes[q].probes
                    ? 1
                    : 0;
    }
    return differ;
  };
  EXPECT_GT(moved(&QueryBatch::noise_base), 0u);
  EXPECT_GT(moved(&QueryBatch::partition_base), 0u);
  EXPECT_GT(moved(&QueryBatch::fault_base), 0u);
  algo.AttachProbePolicy(nullptr);
}

// --- Membership changes between epochs -------------------------------------

TEST(TruthMemo, FreshMemoPerEpochFollowsMembership) {
  // Target 0's closest member is 1 in epoch 0 and, after 1 leaves, 4
  // in epoch 1. A memo carried across the boundary would keep scoring
  // against 1 and call the oracle's exact epoch-1 answers wrong.
  matrix::LatencyMatrix m(8, 10.0);
  m.Set(0, 1, 1.0);
  m.Set(0, 2, 3.0);
  m.Set(0, 3, 3.0);
  m.Set(0, 4, 2.0);
  const MatrixSpace space(m);
  const std::vector<std::vector<NodeId>> members = {{1, 2, 3}, {2, 3, 4}};
  const std::vector<NodeId> pool = {0, 5, 6};
  const std::vector<double> zipf = ZipfCdf(pool.size(), 1.5);

  TruthMemo epoch0_memo;
  for (int epoch = 0; epoch < 2; ++epoch) {
    SCOPED_TRACE(epoch);
    const auto& live = members[static_cast<std::size_t>(epoch)];
    const QueryBatch batch = MakeBatch(space, live, pool, zipf, epoch);
    auto algo = Built(std::make_unique<OracleNearest>(), space, live);
    const std::vector<QueryOutcome> outcomes = RunEpoch(batch, *algo, 30, 1);
    ExpectMatchesBruteForce(batch, *algo, outcomes);
    std::size_t hits_on_zero = 0;
    for (const QueryOutcome& out : outcomes) {
      EXPECT_TRUE(out.exact);
      hits_on_zero += out.target == 0 ? 1 : 0;
    }
    EXPECT_GT(hits_on_zero, 1u);
    if (epoch == 0) {
      std::vector<QueryOutcome> rerun(30);
      RunQueryChunk(batch, *algo, 0, 1, epoch0_memo, rerun);
    }
  }
  // The test has teeth: the epoch-0 memo disagrees with epoch 1.
  ASSERT_NE(epoch0_memo.Find(0), nullptr);
  EXPECT_EQ(epoch0_memo.Find(0)->closest, 1);
  EXPECT_EQ(TrueClosestMember(space, members[1], 0), 4);
}

// --- Truth carried across epochs ------------------------------------------

/// How often the membership walk hit each case the carry rule tells
/// apart.
struct WalkCoverage {
  int closest_left = 0;
  int target_joined = 0;
  int rejoined = 0;
  int carried = 0;
  int rescanned = 0;
};

void ExpectSameTruth(const TargetTruth& a, const TargetTruth& b) {
  EXPECT_EQ(a.closest, b.closest);
  EXPECT_EQ(a.closest_latency, b.closest_latency);
  EXPECT_EQ(a.reachable, b.reachable);
  EXPECT_EQ(a.reachable_latency, b.reachable_latency);
}

/// Walks 200 epochs over `space` (180 nodes) and checks, every epoch and
/// for every target, that the memo carried from the previous epoch
/// across the MemberDelta equals a full ScanTruth. Members are drawn
/// from ids below 60 and 120..139; each epoch a few random joins and
/// leaves land, plus the forced events below.
WalkCoverage WalkAndCompare(const LatencySpace& space, std::uint64_t seed) {
  constexpr NodeId kNodes = 180;
  util::Rng rng(seed);
  // Two different windows over the same nodes: A splits by id parity,
  // B puts ids below 90 on side 1 and leaves side 2 without members.
  matrix::PartitionWindow window_a;
  matrix::PartitionWindow window_b;
  for (NodeId n = 0; n < kNodes; ++n) {
    window_a.component.push_back(static_cast<int>(n % 2));
    window_b.component.push_back(n < 90 ? 1 : (n < 170 ? 0 : 2));
  }
  const auto window_at = [&](int epoch) -> const matrix::PartitionWindow* {
    if ((epoch >= 40 && epoch < 70) || (epoch >= 120 && epoch < 140)) {
      return &window_a;
    }
    if (epoch >= 70 && epoch < 90) {
      return &window_b;  // the window changes without closing
    }
    return nullptr;
  };
  // Targets: hot ones that are never members, ones that come and go,
  // and the nodes of side 2, which no member ever reaches.
  const std::vector<NodeId> targets = {150, 151, 160, 171, 175, 3, 8, 17, 29};
  const NodeId joining_target = 3;

  std::vector<NodeId> members;
  for (NodeId n = 0; n < 60; n += 2) {
    members.push_back(n);
  }
  std::vector<NodeId> prev_members;
  TruthMemo prev_memo;
  NodeId rejoin_pending = kInvalidNode;
  WalkCoverage coverage;
  for (int epoch = 0; epoch < 200; ++epoch) {
    SCOPED_TRACE(epoch);
    if (epoch > 0) {
      const auto is_member = [&](NodeId n) {
        return std::find(members.begin(), members.end(), n) != members.end();
      };
      const auto leave = [&](NodeId n) {
        members.erase(std::find(members.begin(), members.end(), n));
      };
      // Random churn; ids 120..139 sit on side 0 of window B.
      for (std::size_t k = rng.Index(4); k > 0 && members.size() > 3; --k) {
        leave(members[rng.Index(members.size())]);
      }
      for (std::size_t k = rng.Index(4); k > 0; --k) {
        const auto pick = static_cast<NodeId>(rng.Index(80));
        const NodeId n = pick < 60 ? pick : 60 + pick;
        if (!is_member(n)) {
          members.push_back(n);
        }
      }
      // Forced: target 150's previous closest leaves.
      if (epoch % 7 == 0) {
        const TargetTruth* old = prev_memo.Find(150);
        if (old != nullptr && is_member(old->closest) && members.size() > 3) {
          leave(old->closest);
          ++coverage.closest_left;
        }
      }
      // Forced: a target joins (and later leaves again).
      if (epoch % 11 == 0) {
        if (is_member(joining_target)) {
          leave(joining_target);
        } else {
          members.push_back(joining_target);
          ++coverage.target_joined;
        }
      }
      // Forced: a member leaves and rejoins one epoch later.
      if (rejoin_pending != kInvalidNode) {
        if (!is_member(rejoin_pending)) {
          members.push_back(rejoin_pending);
          ++coverage.rejoined;
        }
        rejoin_pending = kInvalidNode;
      } else if (epoch % 13 == 0 && members.size() > 3) {
        rejoin_pending = members[rng.Index(members.size())];
        leave(rejoin_pending);
      }
    }
    const matrix::PartitionWindow* window = window_at(epoch);
    std::optional<MemberDelta> delta;
    if (epoch > 0) {
      delta.emplace(prev_members, members, kNodes);
    }
    TruthMemo memo;
    for (const NodeId target : targets) {
      SCOPED_TRACE(target);
      const bool had = prev_memo.Find(target) != nullptr;
      const TargetTruth& carried = memo.Get(
          space, members, target, window, epoch > 0 ? &prev_memo : nullptr,
          delta ? &*delta : nullptr);
      ExpectSameTruth(carried, ScanTruth(space, members, target, window));
      if (had && delta && delta->Live(prev_memo.Find(target)->closest) &&
          (window == nullptr || window == window_at(epoch - 1))) {
        ++coverage.carried;
      } else {
        ++coverage.rescanned;
      }
    }
    prev_memo = std::move(memo);
    prev_members = members;
  }
  return coverage;
}

TEST(TruthCarry, EqualsAFullScanInEveryEpochOfAMembershipWalk) {
  // A tie-heavy matrix (latencies on a 1 ms grid, so the lowest-id
  // rule decides often) and the embedded backend, whose ClosestOf is
  // the pruned kernel.
  matrix::LatencyMatrix grid(180);
  util::Rng grid_rng(41);
  for (NodeId a = 0; a < 180; ++a) {
    for (NodeId b = a + 1; b < 180; ++b) {
      grid.Set(a, b, 1.0 + static_cast<double>(grid_rng.Index(6)));
    }
  }
  const MatrixSpace tied(grid);
  matrix::EmbeddedSpaceConfig config;
  config.num_nodes = 180;
  config.dimensions = 2;
  config.distortion = 0.3;
  config.seed = 43;
  const matrix::EmbeddedSpace embedded(config);

  const LatencySpace* spaces[] = {&tied, &embedded};
  for (const LatencySpace* space : spaces) {
    const WalkCoverage coverage = WalkAndCompare(*space, 47);
    // The walk reaches every case the carry rule distinguishes.
    EXPECT_GT(coverage.closest_left, 5);
    EXPECT_GT(coverage.target_joined, 5);
    EXPECT_GT(coverage.rejoined, 5);
    EXPECT_GT(coverage.carried, 900);
    EXPECT_GT(coverage.rescanned, 50);
  }
}

TEST(TruthCarry, CarriesOnlyFromALiveClosestAndTheSameWindow) {
  // Target 0: members 1 (1 ms), 2 (3 ms), 3 (5 ms). Node 4 joins at
  // 2 ms. A carried answer costs one call per candidate — the old
  // closest plus the joiners — and a rescan one per member.
  matrix::LatencyMatrix m(8, 10.0);
  m.Set(0, 1, 1.0);
  m.Set(0, 2, 3.0);
  m.Set(0, 3, 5.0);
  m.Set(0, 4, 2.0);
  const MatrixSpace backend(m);
  const std::vector<NodeId> before = {1, 2, 3};
  matrix::PartitionWindow window;
  window.component = {0, 1, 0, 0, 0, 0, 0, 0};

  TruthMemo prev;
  prev.Get(backend, before, 0, nullptr);
  {
    const std::vector<NodeId> after = {1, 2, 3, 4};
    const MemberDelta delta(before, after, 8);
    EXPECT_EQ(delta.joined(), std::vector<NodeId>{4});
    const CountingSpace counting(backend);
    TruthMemo memo;
    EXPECT_EQ(memo.Get(counting, after, 0, nullptr, &prev, &delta).closest, 1);
    EXPECT_EQ(counting.calls(), 2u);
  }
  {
    // The old closest left: rescan all three members.
    const std::vector<NodeId> after = {2, 3, 4};
    const MemberDelta delta(before, after, 8);
    const CountingSpace counting(backend);
    TruthMemo memo;
    const TargetTruth& truth =
        memo.Get(counting, after, 0, nullptr, &prev, &delta);
    EXPECT_EQ(truth.closest, 4);
    EXPECT_EQ(truth.closest_latency, 2.0);
    EXPECT_EQ(counting.calls(), 3u);
  }
  {
    // A window opened: rescan, and 1 is across the cut.
    const std::vector<NodeId> after = {1, 2, 3, 4};
    const MemberDelta delta(before, after, 8);
    const CountingSpace counting(backend);
    TruthMemo memo;
    const TargetTruth& truth =
        memo.Get(counting, after, 0, &window, &prev, &delta);
    EXPECT_EQ(truth.closest, 1);
    EXPECT_EQ(truth.reachable, 4);
    EXPECT_GE(counting.calls(), 4u);
  }
}

TEST(TruthCarry, ServingStalenessMatchesValuesRecordedBeforeTheCarry) {
  // Recorded with %.17g before truth was carried across epochs (every
  // staleness miss scanned in full): an embedded world whose scoring
  // runs the ClosestOf kernel, Zipf targets repeating across epochs,
  // and readers that do not divide the batch evenly.
  matrix::EmbeddedSpaceConfig world;
  world.num_nodes = 1500;
  world.dimensions = 3;
  world.distortion = 0.1;
  world.seed = 61;
  const matrix::EmbeddedSpace space(world);
  ChurnScheduleConfig churn;
  churn.duration_s = 300.0;
  churn.events_per_s = 0.8;
  churn.join_fraction = 0.5;
  churn.seed = 67;
  const ChurnSchedule schedule = ChurnSchedule::Poisson(churn);
  ServingConfig serving;
  serving.scenario.initial_overlay = 150;
  serving.scenario.epochs = 6;
  serving.scenario.queries_per_epoch = 400;
  serving.scenario.query_zipf_s = 1.0;
  serving.scenario.seed = 71;
  const double p_exact_live[] = {0.70250000000000001, 0.72750000000000004,
                                 0.65749999999999997, 0.55249999999999999,
                                 0.73250000000000004, 0.70999999999999996};
  const double p_found_departed[] = {
      0.072499999999999995, 0.092499999999999999, 0.1225,
      0.17749999999999999,  0.070000000000000007, 0.0};
  for (const int readers : {1, 3}) {
    SCOPED_TRACE(readers);
    serving.reader_threads = readers;
    algos::KargerRuhlNearest algo{algos::KargerRuhlConfig{}};
    const ServingReport report =
        RunServing(space, nullptr, algo, schedule, serving, {});
    ASSERT_EQ(report.staleness.size(), 6u);
    for (std::size_t k = 0; k < 6; ++k) {
      EXPECT_EQ(report.staleness[k].epoch, static_cast<int>(k));
      EXPECT_EQ(report.staleness[k].p_exact_live, p_exact_live[k]);
      EXPECT_EQ(report.staleness[k].p_found_departed, p_found_departed[k]);
    }
  }
}

// --- Partition window with an empty component ------------------------------

TEST(TruthMemo, EmptyComponentScoresOnlyAnHonestFailure) {
  const matrix::LatencyMatrix m = RandomMatrix(40, 3);
  const MatrixSpace space(m);
  // Members 0..19; targets 20..39. Component 1 = {30..39} has no
  // member, so its targets can only be answered across the cut.
  std::vector<NodeId> members;
  std::vector<NodeId> pool;
  for (NodeId n = 0; n < 40; ++n) {
    (n < 20 ? members : pool).push_back(n);
  }
  matrix::PartitionSchedule schedule;
  matrix::PartitionWindow window;
  window.start_epoch = 0;
  window.end_epoch = 1;
  window.component.assign(40, 0);
  for (NodeId n = 30; n < 40; ++n) {
    window.component[static_cast<std::size_t>(n)] = 1;
  }
  schedule.windows.push_back(window);
  const std::vector<double> zipf = ZipfCdf(pool.size(), 0.8);

  for (const bool cut_probes : {true, false}) {
    SCOPED_TRACE(cut_probes);
    QueryBatch batch = MakeBatch(space, members, pool, zipf, 0);
    batch.fault_mode = true;
    batch.active_window = &schedule.windows[0];
    // With the schedule in the probe stack the oracle cannot reach
    // across the cut and fails; without it, it answers from the far
    // side, which scoring must reject.
    batch.partition = cut_probes ? &schedule : nullptr;
    auto algo = Built(std::make_unique<OracleNearest>(), space, members);
    const std::vector<QueryOutcome> outcomes = RunEpoch(batch, *algo, 200, 3);
    ExpectMatchesBruteForce(batch, *algo, outcomes);

    std::size_t stranded = 0;
    for (const QueryOutcome& out : outcomes) {
      if (out.target_component != 1) {
        EXPECT_FALSE(out.failed);
        EXPECT_TRUE(out.exact_reachable);
        continue;
      }
      ++stranded;
      EXPECT_EQ(out.failed, cut_probes);
      EXPECT_EQ(out.exact_reachable, cut_probes);
      EXPECT_EQ(out.exact, !cut_probes);
    }
    EXPECT_GT(stranded, 0u);
  }
}

// --- Through the engines ---------------------------------------------------

ChurnSchedule HeavyChurn() {
  ChurnScheduleConfig config;
  config.duration_s = 300.0;
  config.events_per_s = 0.5;
  config.join_fraction = 0.4;
  config.seed = 19;
  return ChurnSchedule::Poisson(config);
}

ScenarioConfig RepeatTargetScenario(int threads) {
  ScenarioConfig config;
  config.initial_overlay = 50;
  config.epochs = 5;
  config.queries_per_epoch = 300;
  config.query_zipf_s = 1.0;
  config.num_threads = threads;
  config.seed = 23;
  return config;
}

ScenarioReport RunOracle(const LatencySpace& space,
                         const ChurnSchedule& schedule, int threads) {
  OracleNearest oracle;
  return RunScenario(space, nullptr, oracle, schedule,
                     RepeatTargetScenario(threads), {});
}

TEST(TruthMemo, OracleStaysExactAcrossEpochsInBothEngines) {
  // The oracle answers every query with the true closest member of the
  // epoch it runs in. Hot targets repeat within and across epochs
  // while members leave, so a memo that outlived its epoch would score
  // some of those answers inexact.
  const matrix::LatencyMatrix m = RandomMatrix(120, 5);
  const MatrixSpace space(m);
  const ChurnSchedule schedule = HeavyChurn();
  const ScenarioReport serial = RunOracle(space, schedule, 1);
  ASSERT_EQ(serial.epochs.size(), 5u);
  for (const EpochReport& er : serial.epochs) {
    EXPECT_EQ(er.p_exact_closest, 1.0);
    EXPECT_EQ(er.excess_latency_p99_ms, 0.0);
  }
  EXPECT_GT(serial.totals.churn_events, 0u);
  for (const int threads : {2, 8}) {
    const ScenarioReport report = RunOracle(space, schedule, threads);
    EXPECT_TRUE(ScenarioReportsIdentical(report, serial))
        << threads << " query threads";
  }
  for (const int readers : {1, 2, 8}) {
    ServingConfig serving;
    serving.scenario = RepeatTargetScenario(1);
    serving.reader_threads = readers;
    OracleNearest oracle;
    const ServingReport report =
        RunServing(space, nullptr, oracle, schedule, serving, {});
    EXPECT_TRUE(ScenarioReportsIdentical(report.scenario, serial))
        << readers << " readers";
    // The last epoch scores staleness against its own membership.
    EXPECT_EQ(report.staleness.back().p_exact_live, 1.0);
    // Earlier epochs score against the next membership: joins there
    // beat some of the oracle's answers that did not depart, which
    // truth read from the answering epoch would never show.
    bool beaten_by_joins = false;
    for (const StalenessReport& s : report.staleness) {
      beaten_by_joins |= s.p_exact_live + s.p_found_departed < 1.0;
    }
    EXPECT_TRUE(beaten_by_joins);
  }
}

}  // namespace
}  // namespace np::core
