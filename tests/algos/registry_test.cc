// Pins the algorithm name table: every row constructs an algorithm
// that reports the row's own name (reports are keyed by name(), specs
// and benches by the row), names are unique, and an unknown name fails
// with every accepted name in the message. It also pins what each row
// computes at its default parameters: one small clustered churn
// scenario under light loss, digested per row.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>

#include "algos/registry.h"
#include "core/churn.h"
#include "core/latency_space.h"
#include "core/scenario.h"
#include "matrix/generators.h"
#include "util/error.h"

namespace np {
namespace {

TEST(AlgorithmRegistry, EveryRowBuildsTheAlgorithmItNames) {
  std::set<std::string> names;
  for (const algos::RegisteredAlgorithm& entry : algos::kAlgorithms) {
    EXPECT_TRUE(names.insert(entry.name).second) << entry.name;
    EXPECT_EQ(entry.make()->name(), entry.name);
    EXPECT_EQ(algos::FindAlgorithm(entry.name), &entry);
  }
  EXPECT_EQ(names.size(), 11u);
}

TEST(AlgorithmRegistry, UnknownNameListsEveryAcceptedName) {
  EXPECT_EQ(algos::FindAlgorithm("hybrid-ucl"), nullptr);
  try {
    algos::MakeAlgorithm("no-such-algorithm");
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown algorithm: no-such-algorithm"),
              std::string::npos);
    for (const algos::RegisteredAlgorithm& entry : algos::kAlgorithms) {
      EXPECT_NE(message.find(entry.name), std::string::npos) << entry.name;
    }
  }
}

/// FNV-1a (64-bit) over the little-endian bytes of each folded word;
/// a double folds as its bit pattern.
class Fnv1a {
 public:
  void Fold(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Fold(std::int64_t word) { Fold(static_cast<std::uint64_t>(word)); }
  void Fold(int word) { Fold(static_cast<std::uint64_t>(word)); }
  void Fold(bool flag) { Fold(static_cast<std::uint64_t>(flag)); }
  void Fold(double value) { Fold(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Every field of the report, in declaration order.
std::uint64_t ReportDigest(const core::ScenarioReport& r) {
  Fnv1a d;
  for (const char c : r.algorithm) {
    d.Fold(static_cast<std::uint64_t>(c));
  }
  d.Fold(r.clustered);
  d.Fold(r.build_messages);
  d.Fold(r.initial_members);
  d.Fold(r.final_members);
  for (const core::EpochReport& e : r.epochs) {
    d.Fold(e.epoch);
    d.Fold(e.time_s);
    d.Fold(e.live_members);
    d.Fold(e.joins);
    d.Fold(e.leaves);
    d.Fold(e.crashes);
    d.Fold(e.skipped_events);
    d.Fold(e.rebuilt);
    d.Fold(e.p_exact_closest);
    d.Fold(e.p_correct_cluster);
    d.Fold(e.p_same_net);
    d.Fold(e.mean_found_latency_ms);
    d.Fold(e.mean_hops);
    d.Fold(e.excess_latency_p50_ms);
    d.Fold(e.excess_latency_p95_ms);
    d.Fold(e.excess_latency_p99_ms);
    d.Fold(e.messages_per_query);
    d.Fold(e.maintenance_messages);
    d.Fold(e.maintenance_per_event);
    d.Fold(e.p_query_failed);
    d.Fold(e.failed_probes);
    d.Fold(e.retries);
    d.Fold(e.p_exact_reachable);
    d.Fold(e.components.size());
    for (const auto& c : e.components) {
      d.Fold(c.component);
      d.Fold(c.members);
      d.Fold(c.queries);
      d.Fold(c.failed_queries);
      d.Fold(c.load_gini);
    }
    d.Fold(e.quarantined_peers);
    d.Fold(e.suspicion_skips);
    d.Fold(e.probation_probes);
    d.Fold(e.load_max);
    d.Fold(e.load_median);
    d.Fold(e.load_gini);
  }
  const core::ProbeCounter::Snapshot& t = r.totals;
  for (const std::uint64_t tally :
       {t.query_probes, t.queries, t.maintenance_probes, t.churn_events,
        t.build_probes, t.failed_probes, t.retries, t.suspicion_skips,
        t.probation_probes}) {
    d.Fold(tally);
  }
  d.Fold(r.messages_per_query);
  d.Fold(r.maintenance_per_event);
  d.Fold(r.fault_mode);
  d.Fold(r.load_tracking);
  d.Fold(r.partition_mode);
  d.Fold(r.suspicion_mode);
  d.Fold(r.failed_queries);
  d.Fold(r.load.total);
  d.Fold(r.load.max);
  d.Fold(r.load.max_node);
  d.Fold(r.load.median);
  d.Fold(r.load.gini);
  return d.value();
}

/// Each row at its default parameters (every fixed constant in play):
/// 100 peers in 5 clusters, 60 in the overlay, session churn (joins and
/// leaves) over 3 epochs of 40 queries, 3 % probe loss with two
/// attempts and the load ledger on. A changed constant, draw or
/// rounding in any algorithm moves its row's digest.
TEST(AlgorithmRegistry, DefaultReportsArePinned) {
  matrix::ClusteredConfig wconfig;
  wconfig.num_clusters = 5;
  wconfig.nets_per_cluster = 10;
  wconfig.peers_per_net = 2;
  util::Rng world_rng(41);
  const matrix::ClusteredWorld world =
      matrix::GenerateClustered(wconfig, world_rng);
  const core::MatrixSpace space(world.matrix);

  core::ChurnScheduleConfig cconfig;
  cconfig.duration_s = 120.0;
  cconfig.events_per_s = 0.5;
  cconfig.mean_session_s = 60.0;
  cconfig.seed = 43;
  const core::ChurnSchedule schedule = core::ChurnSchedule::Poisson(cconfig);

  core::ScenarioConfig sconfig;
  sconfig.initial_overlay = 60;
  sconfig.epochs = 3;
  sconfig.queries_per_epoch = 40;
  sconfig.fault.loss_rate = 0.03;
  sconfig.fault.max_attempts = 2;
  sconfig.fault.track_load = true;
  sconfig.seed = 47;

  const std::map<std::string, std::uint64_t> expected = {
      {"oracle", 0x6fd537f1d104ece1ULL},
      {"random", 0x4358913004d9107aULL},
      {"meridian", 0xe1af8fc35bfe5cddULL},
      {"karger-ruhl", 0xc8a8dbd3536239f7ULL},
      {"tiers", 0xbf365ebc8a602a45ULL},
      {"tiers-rebuild", 0xdb02d2bc02e74df2ULL},
      {"beaconing", 0x6bbd3a1873d89458ULL},
      {"tapestry", 0x605f44deb92c8cd7ULL},
      {"coord-vivaldi", 0x3dca1bc0ec28e3feULL},
      {"coord-pic", 0x2b1e885b3748139fULL},
      {"coord-landmark", 0x09ef029d18f82b33ULL},
  };
  ASSERT_EQ(expected.size(), std::size(algos::kAlgorithms));
  for (const algos::RegisteredAlgorithm& entry : algos::kAlgorithms) {
    const auto algo = entry.make();
    const core::ScenarioReport report =
        core::RunScenario(space, &world.layout, *algo, schedule, sconfig);
    ASSERT_GT(report.totals.failed_probes, 0u) << entry.name;
    std::int64_t joins = 0;
    std::int64_t leaves = 0;
    for (const core::EpochReport& epoch : report.epochs) {
      joins += epoch.joins;
      leaves += epoch.leaves;
    }
    ASSERT_GT(joins, 0) << entry.name;
    ASSERT_GT(leaves, 0) << entry.name;
    EXPECT_EQ(ReportDigest(report), expected.at(entry.name))
        << entry.name << std::hex << " digest 0x" << ReportDigest(report);
  }
}

}  // namespace
}  // namespace np
