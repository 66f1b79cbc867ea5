// ProbePolicy: the retry contract (re-rolls recover transient loss,
// crashed peers never recover), give-up semantics, counter charging
// (failed_probes / retries / per-attempt billing through MeteredSpace),
// backoff arithmetic, the Default() == no-fault identity, the
// suspicion/failure-detector ledger (strikes, quarantine gating,
// probation backoff, release), and the kStartRedraws exhaustion path
// returning an honest query failure.
#include "core/probe_policy.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "core/probe_counter.h"
#include "matrix/faulty_space.h"
#include "matrix/latency_matrix.h"
#include "util/rng.h"

namespace np::core {
namespace {

matrix::LatencyMatrix SmallMatrix(NodeId n) {
  matrix::LatencyMatrix m(n, 10.0);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      m.Set(i, j, 10.0 + static_cast<LatencyMs>(i + j));
    }
  }
  return m;
}

TEST(ProbePolicy, DefaultIsSingleAttemptNothingCharged) {
  const auto m = SmallMatrix(8);
  const MatrixSpace space(m);
  const ProbePolicy& policy = ProbePolicy::Default();
  EXPECT_EQ(policy.max_attempts(), 1);
  const auto measured = policy.Probe(space, 1, 2);
  ASSERT_TRUE(measured.has_value());
  EXPECT_EQ(*measured, space.Latency(1, 2));
}

TEST(ProbePolicy, RetryRecoversTransientLossCrashNever) {
  const auto m = SmallMatrix(8);
  const MatrixSpace inner(m);
  std::unordered_set<NodeId> crashed = {5};
  // Heavy transient loss, generous retry budget: over many distinct
  // probes every healthy target must eventually answer within the
  // attempt budget while the crashed target never does.
  const matrix::FaultySpace faulty(inner, 0.5, /*seed=*/17, &crashed);
  ProbeCounter counter;
  const ProbePolicy policy(/*max_attempts=*/16, &counter);
  int healthy_hits = 0;
  for (NodeId target = 0; target < 5; ++target) {
    const auto measured = policy.Probe(faulty, target, (target + 1) % 5);
    if (measured) {
      ++healthy_hits;
      EXPECT_EQ(*measured, inner.Latency(target, (target + 1) % 5));
    }
    EXPECT_FALSE(policy.Probe(faulty, target, 5).has_value());
    EXPECT_FALSE(policy.Probe(faulty, 5, target).has_value());
  }
  // P(any healthy probe exhausts 16 attempts at loss 0.5) = 5 * 2^-16.
  EXPECT_EQ(healthy_hits, 5);
  const auto snapshot = counter.Read();
  // Every crashed-target attempt failed: 10 probes * 16 attempts, plus
  // whatever transient losses the healthy probes saw first.
  EXPECT_GE(snapshot.failed_probes, 10u * 16u);
  // retries = failed attempts that were followed by another attempt.
  EXPECT_GE(snapshot.retries, 10u * 15u);
  EXPECT_LT(snapshot.retries, snapshot.failed_probes + 1);
}

TEST(ProbePolicy, EveryAttemptIsBilledThroughTheMeter) {
  const auto m = SmallMatrix(8);
  const MatrixSpace inner(m);
  std::unordered_set<NodeId> crashed = {3};
  const matrix::FaultySpace faulty(inner, 0.0, /*seed=*/1, &crashed);
  ProbeCounter counter;
  PerNodeLedger ledger(8);
  const MeteredSpace metered(faulty, &ledger);
  const ProbePolicy policy(/*max_attempts=*/4, &counter);
  // Healthy target: first attempt answers, one billed probe.
  ASSERT_TRUE(policy.Probe(metered, 0, 1).has_value());
  EXPECT_EQ(metered.probes(), 1u);
  EXPECT_EQ(ledger.count(0), 1u);
  // Crashed target: all four attempts billed (meter and ledger see
  // every retry), then give-up.
  EXPECT_FALSE(policy.Probe(metered, 0, 3).has_value());
  EXPECT_EQ(metered.probes(), 5u);
  EXPECT_EQ(ledger.count(0), 5u);
  const auto snapshot = counter.Read();
  EXPECT_EQ(snapshot.failed_probes, 4u);
  EXPECT_EQ(snapshot.retries, 3u);
}

TEST(ProbePolicy, StartRedrawExhaustionReturnsHonestFailure) {
  // Every member crashed: the query's start draw can never answer, so
  // after kStartRedraws fresh picks the algorithm must give up with
  // found == kInvalidNode — never assert, never fabricate a peer.
  const auto m = SmallMatrix(8);
  const MatrixSpace inner(m);
  std::unordered_set<NodeId> crashed = {0, 1, 2, 3};
  const matrix::FaultySpace faulty(inner, 0.0, /*seed=*/5, &crashed);
  const MeteredSpace metered(faulty, nullptr);
  ProbeCounter counter;
  const ProbePolicy policy(/*max_attempts=*/2, &counter);

  RandomNearest algo;
  util::Rng rng(7);
  algo.Build(inner, {0, 1, 2, 3}, rng);
  algo.AttachProbePolicy(&policy);
  const QueryResult result = algo.Query(/*target=*/6, metered, rng);
  EXPECT_EQ(result.found, kInvalidNode);
  // Every draw burned its full attempt budget on the wire.
  EXPECT_GE(metered.probes(), 2u * 8u);
  const auto snapshot = counter.Read();
  EXPECT_GE(snapshot.failed_probes, snapshot.retries);
  EXPECT_GE(snapshot.retries, 8u);

  // One live member among the dead: the redraw loop must find it well
  // within (1/2)^-8 odds and answer.
  std::unordered_set<NodeId> partial = {0, 1};
  const matrix::FaultySpace half(inner, 0.0, /*seed=*/5, &partial);
  const MeteredSpace half_metered(half, nullptr);
  int answered = 0;
  for (int trial = 0; trial < 32; ++trial) {
    const QueryResult r = algo.Query(/*target=*/6, half_metered, rng);
    if (r.found != kInvalidNode) {
      ++answered;
      EXPECT_TRUE(r.found == 2 || r.found == 3);
    }
  }
  EXPECT_GT(answered, 24);
}

TEST(SuspicionLedger, StrikesQuarantineAndSkipsAreFree) {
  const auto m = SmallMatrix(8);
  const MatrixSpace inner(m);
  std::unordered_set<NodeId> crashed = {4};
  const matrix::FaultySpace faulty(inner, 0.0, /*seed=*/3, &crashed);
  const MeteredSpace metered(faulty, nullptr);
  ProbeCounter counter;
  SuspicionLedger ledger(SuspicionConfig{/*strikes=*/3});
  ledger.set_recording(true);
  ledger.set_epoch(0);
  const ProbePolicy policy(/*max_attempts=*/1, &counter, &ledger);

  // Two give-ups: still probing the wire, not yet quarantined.
  EXPECT_FALSE(policy.Probe(metered, 4, 0).has_value());
  EXPECT_FALSE(policy.Probe(metered, 4, 1).has_value());
  EXPECT_FALSE(ledger.Quarantined(4));
  EXPECT_EQ(metered.probes(), 2u);
  // Third consecutive give-up trips the detector.
  EXPECT_FALSE(policy.Probe(metered, 4, 2).has_value());
  EXPECT_TRUE(ledger.Quarantined(4));
  EXPECT_EQ(ledger.quarantined_count(), 1u);
  // Further probes are skipped without touching the wire and charged
  // as suspicion_skips, not failed_probes.
  EXPECT_FALSE(policy.Probe(metered, 4, 0).has_value());
  EXPECT_EQ(metered.probes(), 3u);
  const auto snapshot = counter.Read();
  EXPECT_EQ(snapshot.failed_probes, 3u);
  EXPECT_EQ(snapshot.suspicion_skips, 1u);
  // A success on a healthy peer resets nothing it shouldn't: peer 2
  // accrues strikes only from its own outcomes.
  ASSERT_TRUE(policy.Probe(metered, 2, 0).has_value());
  EXPECT_FALSE(ledger.Quarantined(2));
}

TEST(SuspicionLedger, SuccessResetsConsecutiveStrikes) {
  SuspicionLedger ledger(SuspicionConfig{/*strikes=*/3});
  ledger.set_recording(true);
  ledger.RecordProbe(7, false);
  ledger.RecordProbe(7, false);
  ledger.RecordProbe(7, true);  // consecutive counter back to zero
  ledger.RecordProbe(7, false);
  ledger.RecordProbe(7, false);
  EXPECT_FALSE(ledger.Quarantined(7));
  ledger.RecordProbe(7, false);
  EXPECT_TRUE(ledger.Quarantined(7));
  // While not recording, outcomes are ignored (parallel query phases).
  ledger.set_recording(false);
  ledger.RecordProbe(6, false);
  ledger.RecordProbe(6, false);
  ledger.RecordProbe(6, false);
  EXPECT_FALSE(ledger.Quarantined(6));
}

TEST(SuspicionLedger, ProbationBackoffArithmeticAndRelease) {
  SuspicionConfig config;
  config.strikes = 1;
  config.probation_epochs = 1;
  config.probation_backoff = 2.0;
  SuspicionLedger ledger(config);
  ledger.set_recording(true);
  ledger.set_epoch(0);
  ledger.RecordProbe(5, false);
  ASSERT_TRUE(ledger.Quarantined(5));

  // First re-probe is due probation_epochs after quarantine.
  EXPECT_TRUE(ledger.ProbationDue(0).empty());
  ASSERT_EQ(ledger.ProbationDue(1), std::vector<NodeId>{5});
  // Each failed probation doubles the interval: due at 1, then
  // 1 + 1*2^1 = 3, then 3 + 1*2^2 = 7.
  EXPECT_FALSE(ledger.ResolveProbation(5, 1, false));
  EXPECT_TRUE(ledger.ProbationDue(2).empty());
  ASSERT_EQ(ledger.ProbationDue(3), std::vector<NodeId>{5});
  EXPECT_FALSE(ledger.ResolveProbation(5, 3, false));
  EXPECT_TRUE(ledger.ProbationDue(6).empty());
  ASSERT_EQ(ledger.ProbationDue(7), std::vector<NodeId>{5});
  // Success releases: no longer quarantined, no longer due.
  EXPECT_TRUE(ledger.ResolveProbation(5, 7, true));
  EXPECT_FALSE(ledger.Quarantined(5));
  EXPECT_TRUE(ledger.ProbationDue(8).empty());
  // Released means strikes start from scratch.
  ledger.RecordProbe(5, false);
  EXPECT_TRUE(ledger.Quarantined(5));
}

TEST(SuspicionLedger, ProbationDueIsSortedAndPruneDropsDeparted) {
  SuspicionLedger ledger(SuspicionConfig{/*strikes=*/1});
  ledger.set_recording(true);
  ledger.set_epoch(0);
  for (const NodeId peer : {9, 3, 7}) {
    ledger.RecordProbe(peer, false);
  }
  EXPECT_EQ(ledger.quarantined_count(), 3u);
  const std::vector<NodeId> due = ledger.ProbationDue(1);
  ASSERT_EQ(due, (std::vector<NodeId>{3, 7, 9}));
  // Peer 7 left the overlay: its detector state goes with it.
  ledger.PruneTo({3, 9, 11});
  EXPECT_EQ(ledger.quarantined_count(), 2u);
  EXPECT_FALSE(ledger.Quarantined(7));
  EXPECT_EQ(ledger.ProbationDue(1), (std::vector<NodeId>{3, 9}));
}

TEST(SuspicionLedger, ProbationProbeBypassesGateAndChargesCounter) {
  const auto m = SmallMatrix(8);
  const MatrixSpace inner(m);
  std::unordered_set<NodeId> crashed = {4};
  const matrix::FaultySpace faulty(inner, 0.0, /*seed=*/3, &crashed);
  const MeteredSpace metered(faulty, nullptr);
  ProbeCounter counter;
  SuspicionLedger ledger(SuspicionConfig{/*strikes=*/1});
  ledger.set_recording(true);
  ledger.set_epoch(0);
  const ProbePolicy policy(/*max_attempts=*/1, &counter, &ledger);
  EXPECT_FALSE(policy.Probe(metered, 4, 0).has_value());
  ASSERT_TRUE(ledger.Quarantined(4));
  // The probation probe goes to the wire despite the quarantine and
  // never feeds strikes — its outcome is applied via ResolveProbation.
  EXPECT_FALSE(policy.ProbationProbe(metered, 4, 0).has_value());
  EXPECT_EQ(metered.probes(), 2u);
  const auto snapshot = counter.Read();
  EXPECT_EQ(snapshot.probation_probes, 1u);
  EXPECT_EQ(snapshot.suspicion_skips, 0u);
  // A recovered peer's probation succeeds and reads the true latency.
  crashed.clear();
  const auto healed = policy.ProbationProbe(metered, 4, 0);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(*healed, inner.Latency(4, 0));
}

TEST(ProbePolicy, SingleAttemptPolicyChargesFailuresButNoRetries) {
  const auto m = SmallMatrix(8);
  const MatrixSpace inner(m);
  std::unordered_set<NodeId> crashed = {2};
  const matrix::FaultySpace faulty(inner, 0.0, /*seed=*/1, &crashed);
  ProbeCounter counter;
  const ProbePolicy policy(/*max_attempts=*/1, &counter);
  EXPECT_FALSE(policy.Probe(faulty, 0, 2).has_value());
  const auto snapshot = counter.Read();
  EXPECT_EQ(snapshot.failed_probes, 1u);
  EXPECT_EQ(snapshot.retries, 0u);
}

}  // namespace
}  // namespace np::core
