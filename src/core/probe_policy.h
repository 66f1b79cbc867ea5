// Retry/timeout/backoff policy for latency probes.
//
// Under fault injection (FaultySpace) a probe can come back with no
// measurement. Real systems do not give up after one datagram: they
// retry with a timeout and (usually exponential) backoff before
// declaring the peer dead. ProbePolicy centralizes that contract so
// every build/join/repair/query hot loop pays for faults the same way:
//
//   * each attempt is billed — it goes through whatever MeteredSpace
//     wraps the faulty space, so retries show up in messages/query;
//   * a retry of the same pair re-rolls loss (FaultySpace keys loss on
//     the per-pair attempt count), so retrying genuinely helps against
//     transient loss but never against a crashed peer;
//   * after max_attempts failures the probe gives up and returns
//     nullopt; the caller must skip the target and fall back to its
//     next candidate ("treat as stale"), never assert or fabricate a
//     latency.
//
// Failed attempts and retries are charged to an optional ProbeCounter
// (failed_probes / retries), keeping fault-mode runs auditable and —
// because the charges are per-probe deterministic quantities summed
// atomically — thread-count invariant.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/latency_space.h"
#include "core/probe_counter.h"
#include "matrix/faulty_space.h"
#include "util/types.h"

namespace np::core {

/// How many fresh random peers a query draws when its start node is
/// unreachable before declaring the query failed. At zero loss the
/// first draw always answers, so the fault-free rng stream is
/// untouched; under heavy loss 8 redraws make a spurious all-start
/// failure (loss^8) negligible next to per-candidate loss.
inline constexpr int kStartRedraws = 8;

struct SuspicionConfig {
  /// Consecutive failed probes (full give-ups, not attempts) after
  /// which a peer is quarantined. 0 disables the detector.
  int strikes = 3;
  /// Epochs until a quarantined peer's first probation re-probe.
  int probation_epochs = 1;
  /// Interval multiplier per failed probation (backoff); >= 1.
  double probation_backoff = 2.0;

  bool Enabled() const { return strikes > 0; }
};

/// Rejects a detector config SuspicionLedger cannot run; its
/// constructor calls this.
void ValidateSuspicionConfig(const SuspicionConfig& config);
/// Rejects a retry budget ProbePolicy cannot run; its constructor calls
/// this.
void ValidateMaxAttempts(int max_attempts);

/// Suspicion / failure-detector ledger: consecutive give-ups on the
/// same peer quarantine it, after which probes to it are skipped for
/// free (charged as suspicion_skips, never sent) until a billed
/// probation re-probe at a backed-off interval succeeds and releases
/// it. Peers are keyed on Probe()'s FIRST argument — the contacted
/// peer, same convention as PerNodeLedger billing.
///
/// Thread-safety: Quarantined() is a read and safe to share across
/// query threads; everything that mutates (RecordProbe, probation,
/// epoch/pruning) is serial-only. The engines keep `recording` off
/// outside serial maintenance windows, so parallel queries consult the
/// quarantine set but never write strikes — which also keeps reports
/// thread-count invariant. The ledger is copyable: the serving engine
/// hands each epoch's readers a frozen copy.
class SuspicionLedger {
 public:
  explicit SuspicionLedger(SuspicionConfig config);

  const SuspicionConfig& config() const { return config_; }

  bool Quarantined(NodeId peer) const {
    return quarantine_.count(peer) != 0;
  }
  std::size_t quarantined_count() const { return quarantine_.size(); }

  /// While recording, Probe() outcomes feed the strike counts; the
  /// engines enable this only during serial maintenance windows.
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }

  /// Clock for quarantine scheduling; set at each window start.
  void set_epoch(int epoch) { epoch_ = epoch; }

  /// Feeds one probe outcome (serial-only; no-op for already
  /// quarantined peers — those go through probation instead).
  void RecordProbe(NodeId peer, bool ok);

  /// Quarantined peers due a probation re-probe at `epoch`, sorted by
  /// id for deterministic iteration.
  std::vector<NodeId> ProbationDue(int epoch) const;

  /// Applies a probation outcome: success releases the peer (returns
  /// true), failure deepens the backoff and reschedules.
  bool ResolveProbation(NodeId peer, int epoch, bool ok);

  /// Drops every entry not in `members`: departed peers need no
  /// detector state.
  void PruneTo(const std::unordered_set<NodeId>& members);

 private:
  struct Quarantine {
    int level = 0;       // failed probations so far
    int next_epoch = 0;  // earliest epoch for the next re-probe
  };

  SuspicionConfig config_{};
  bool recording_ = false;
  int epoch_ = 0;
  /// Consecutive give-ups per non-quarantined peer.
  std::unordered_map<NodeId, int> strikes_;
  std::unordered_map<NodeId, Quarantine> quarantine_;
};

class ProbePolicy {
 public:
  /// Default-constructed policy == the no-fault contract: one attempt,
  /// nothing charged.
  ProbePolicy() = default;
  /// `max_attempts`: total attempts per probe (>= 1); 1 means no
  /// retry.
  explicit ProbePolicy(int max_attempts, ProbeCounter* counter = nullptr,
                       SuspicionLedger* suspicion = nullptr);

  /// Probes Latency(node, target) through `space`, retrying up to
  /// max_attempts times. Returns the first successful measurement, or
  /// nullopt when every attempt was lost. Every attempt is billed by
  /// the meter wrapping `space`; failures and retries are charged to
  /// the attached counter. With a suspicion ledger attached, probes to
  /// a quarantined `node` are skipped without touching the wire
  /// (charged as suspicion_skips), and — while the ledger is recording
  /// — each outcome feeds its strike counts.
  std::optional<LatencyMs> Probe(const LatencySpace& space, NodeId node,
                                 NodeId target) const;

  /// Probation variant: bypasses the quarantine gate (that is the
  /// point) and never records strikes; charges probation_probes on top
  /// of the normal per-attempt billing. Serial-only, like all ledger
  /// mutation paths.
  std::optional<LatencyMs> ProbationProbe(const LatencySpace& space,
                                          NodeId node, NodeId target) const;

  const SuspicionLedger* suspicion() const { return suspicion_; }

  int max_attempts() const { return max_attempts_; }

  /// Process-wide default instance (single attempt, no counter): the
  /// exact pre-fault probe behavior, used when no policy is attached.
  static const ProbePolicy& Default();

 private:
  std::optional<LatencyMs> Attempt(const LatencySpace& space, NodeId node,
                                   NodeId target) const;

  int max_attempts_ = 1;
  ProbeCounter* counter_ = nullptr;
  SuspicionLedger* suspicion_ = nullptr;
};

}  // namespace np::core
