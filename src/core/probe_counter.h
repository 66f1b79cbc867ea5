// Probe-cost ledger for the churn-and-cost scenario engine.
//
// The paper's load-concentration effect (Figs 8-9) is at bottom a
// *traffic* problem: every latency probe is a message some peer must
// answer, and maintenance traffic under churn competes with query
// traffic for the same budget. A ProbeCounter aggregates both sides so
// every experiment can report messages/query and maintenance
// messages/churn-event alongside accuracy.
//
// Thread-safety: all mutators are lock-free atomic adds, so the
// parallel query loop can charge probes from many worker threads.
// Totals are sums of per-query deterministic quantities, which makes
// them invariant under thread count and execution order.
//
// Overflow semantics: counters saturate at
// std::numeric_limits<uint64_t>::max() instead of wrapping — a
// saturated ledger reads as "astronomical", never as "cheap".
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace np::core {

class ProbeCounter {
 public:
  /// Plain-value copy of the ledger, safe to aggregate and serialize.
  struct Snapshot {
    /// Probes issued while resolving queries (query-time traffic).
    std::uint64_t query_probes = 0;
    /// Queries charged to this ledger.
    std::uint64_t queries = 0;
    /// Probes issued maintaining overlay state under churn (joins,
    /// leaves, repairs, epoch rebuilds).
    std::uint64_t maintenance_probes = 0;
    /// Churn events (joins + leaves) charged to this ledger.
    std::uint64_t churn_events = 0;
    /// Probes issued by the initial Build (reported separately from
    /// maintenance: every deployment pays it exactly once).
    std::uint64_t build_probes = 0;
    /// Probes that were billed but returned no latency (lost in
    /// transit, or the target had crashed). Always <= the sum of the
    /// probe counters above: a failed probe is still a probe.
    std::uint64_t failed_probes = 0;
    /// Re-attempts issued by a ProbePolicy after a failed probe. Each
    /// retry is also billed as a probe in the phase counters.
    std::uint64_t retries = 0;
    /// Probes *not* issued because the target was quarantined by the
    /// suspicion ledger (failure detector). A skip is free on the wire
    /// — that is the point of quarantining — so it is counted here and
    /// nowhere else.
    std::uint64_t suspicion_skips = 0;
    /// Probation re-probes issued to quarantined peers at backed-off
    /// intervals. Each is also billed as a maintenance probe: heal
    /// detection is metered traffic, symmetric with crash repair.
    std::uint64_t probation_probes = 0;

    /// Mean messages per query; 0 when no query has been charged.
    double MessagesPerQuery() const;
    /// Mean maintenance messages per churn event; 0 when no event has
    /// been charged.
    double MaintenancePerEvent() const;

    bool operator==(const Snapshot&) const = default;
  };

  ProbeCounter() = default;
  ProbeCounter(const ProbeCounter&) = delete;
  ProbeCounter& operator=(const ProbeCounter&) = delete;

  void AddQueryProbes(std::uint64_t n) { SaturatingAdd(query_probes_, n); }
  void AddQueries(std::uint64_t n) { SaturatingAdd(queries_, n); }
  void AddMaintenanceProbes(std::uint64_t n) {
    SaturatingAdd(maintenance_probes_, n);
  }
  void AddChurnEvents(std::uint64_t n) { SaturatingAdd(churn_events_, n); }
  void AddBuildProbes(std::uint64_t n) { SaturatingAdd(build_probes_, n); }
  void AddFailedProbes(std::uint64_t n) { SaturatingAdd(failed_probes_, n); }
  void AddRetries(std::uint64_t n) { SaturatingAdd(retries_, n); }
  void AddSuspicionSkips(std::uint64_t n) {
    SaturatingAdd(suspicion_skips_, n);
  }
  void AddProbationProbes(std::uint64_t n) {
    SaturatingAdd(probation_probes_, n);
  }

  Snapshot Read() const;

  /// Zeroes every counter (epoch boundaries, test setup).
  void Reset();

 private:
  static void SaturatingAdd(std::atomic<std::uint64_t>& counter,
                            std::uint64_t n);

  std::atomic<std::uint64_t> query_probes_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> maintenance_probes_{0};
  std::atomic<std::uint64_t> churn_events_{0};
  std::atomic<std::uint64_t> build_probes_{0};
  std::atomic<std::uint64_t> failed_probes_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> suspicion_skips_{0};
  std::atomic<std::uint64_t> probation_probes_{0};
};

/// Per-node tally of messages *answered*: who pays for all that probe
/// traffic. The convention is that Latency(a, b) bills node a — the
/// first argument is the peer being measured/contacted — which is how
/// every algorithm in this repo issues probes (candidate first, target
/// second). Maintained by MeteredSpace when one is attached.
///
/// Thread-safety: Record is a relaxed atomic add, so parallel query
/// loops can share one ledger; totals are order-invariant. Counts()
/// must not race a concurrent Record (the engine reads only at epoch
/// barriers).
class PerNodeLedger {
 public:
  explicit PerNodeLedger(std::size_t num_nodes)
      : counts_(num_nodes) {}
  PerNodeLedger(const PerNodeLedger&) = delete;
  PerNodeLedger& operator=(const PerNodeLedger&) = delete;

  void Record(NodeId node) {
    if (node >= 0 && static_cast<std::size_t>(node) < counts_.size()) {
      counts_[static_cast<std::size_t>(node)].fetch_add(
          1, std::memory_order_relaxed);
    }
  }

  std::size_t size() const { return counts_.size(); }

  std::uint64_t count(NodeId node) const {
    return counts_.at(static_cast<std::size_t>(node))
        .load(std::memory_order_relaxed);
  }

  /// Plain-value copy of all counts.
  std::vector<std::uint64_t> Counts() const;

  void Reset();

 private:
  std::vector<std::atomic<std::uint64_t>> counts_;
};

/// Load distribution over a member set, from a ledger delta (one epoch)
/// or a cumulative ledger (whole run). Quantifies the paper's Figs 8-9
/// load-concentration claim per scheme.
struct PerNodeSnapshot {
  std::uint64_t total = 0;
  /// Heaviest-loaded member and its count (lowest id on ties).
  std::uint64_t max = 0;
  NodeId max_node = kInvalidNode;
  double median = 0.0;
  /// Gini coefficient of per-member load, in [0, 1].
  double gini = 0.0;

  bool operator==(const PerNodeSnapshot&) const = default;

  /// Distribution of counts[m] - baseline[m] over `members`. baseline
  /// may be nullptr (taken as all-zero) or must be the same size as
  /// counts. Members outside counts' range contribute zero load.
  static PerNodeSnapshot Over(const std::vector<std::uint64_t>& counts,
                              const std::vector<std::uint64_t>* baseline,
                              const std::vector<NodeId>& members);
};

}  // namespace np::core
