// The per-epoch truth memo in the shared query kernel (core/query_batch):
// memoized outcomes must equal a fresh brute-force TrueClosestMember
// scoring of every query, field for field — under latency ties,
// repeated Zipf targets, membership that changes between epochs, and a
// partition window that leaves a target's component without members.
// The engine-level cases check the same through RunScenario/RunServing
// with the oracle, whose every answer is the true closest member.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core/churn.h"
#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "core/query_batch.h"
#include "core/scenario.h"
#include "core/serving.h"
#include "matrix/latency_matrix.h"
#include "matrix/partitioned_space.h"
#include "util/rng.h"

namespace np::core {
namespace {

constexpr LatencyMs kTieEpsilon = 1e-9;

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
  batch.tie_epsilon_ms = kTieEpsilon;
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

/// Every memoized outcome must equal the same query scored with a
/// fresh memo, and its truth fields must agree with a brute-force
/// TrueClosestMember (and reachable) scan of that query alone.
void ExpectMatchesBruteForce(const QueryBatch& batch,
                             NearestPeerAlgorithm& algo,
                             const std::vector<QueryOutcome>& memoized) {
  const LatencySpace& space = *batch.space;
  for (std::size_t q = 0; q < memoized.size(); ++q) {
    SCOPED_TRACE(q);
    const QueryOutcome& out = memoized[q];
    TruthMemo fresh;
    ExpectSameOutcome(out, RunBatchQuery(batch, algo, q, fresh));

    const NodeId truth = TrueClosestMember(space, *batch.members, out.target);
    EXPECT_EQ(out.truth_latency, space.Latency(truth, out.target));
    if (!out.failed) {
      EXPECT_EQ(out.exact,
                out.found_latency <= out.truth_latency + kTieEpsilon);
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
      expected = out.found_latency <= rtruth_latency + kTieEpsilon;
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
