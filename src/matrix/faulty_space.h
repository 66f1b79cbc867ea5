// Fault-injection decorator for latency spaces: lossy probes and
// crashed peers.
//
// The simulator's probes otherwise always succeed and every departure
// is graceful; real deployments lose probes and lose peers without
// notice. FaultySpace models both: each probe is independently lost
// with probability loss_rate, and any probe whose endpoint is in the
// crashed set always fails (a dead peer never answers). A lost probe
// still costs a message — the MeteredSpace wrapping this decorator
// bills the attempt — but returns no latency: the sentinel kLostProbeMs
// (a quiet NaN, so every ordering comparison against it is false and an
// un-checked caller can never accidentally select a dead peer as
// "closest").
//
// Loss determinism mirrors NoisySpace jitter: the k-th probe of the
// unordered pair {a, b} decides loss from
// Mix64(Mix64(seed ^ PairKey(a, b)) ^ k), a pure function of
// (seed, pair, per-pair attempt count). Loss is therefore order-robust
// (reordering probes across different pairs cannot move a loss) and
// thread-invariant for per-query instances keyed by query index, while
// a retry of the same pair advances k and sees fresh randomness — which
// is exactly what gives ProbePolicy retries a chance to get through.
//
// Thread-safety: with loss_rate > 0 the per-pair attempt tracker
// mutates under Latency(), so such instances must be call-site private
// (one per query worker, reseeded per query / one serial maintenance
// instance), like NoisySpace.
// With loss_rate == 0 the decorator only *reads* the crashed set and is
// safe to share across query threads as long as nobody mutates the set
// concurrently (the scenario engine only mutates it between epochs'
// serial churn windows).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>

#include "core/latency_space.h"
#include "util/pair_stream.h"
#include "util/types.h"

namespace np::matrix {

/// Sentinel returned by a lost probe. Quiet NaN: any <, >, <= against
/// it is false, so a lost measurement can never win a nearest
/// comparison even if a caller forgets to check.
inline constexpr LatencyMs kLostProbeMs =
    std::numeric_limits<LatencyMs>::quiet_NaN();

/// True iff a measurement is the lost-probe sentinel.
inline bool ProbeLost(LatencyMs v) { return std::isnan(v); }

/// Rejects a loss rate outside [0, 1); FaultySpace's constructor calls
/// this.
void ValidateLossRate(double loss_rate);

class FaultySpace final : public core::LatencySpace {
 public:
  /// `crashed` is a non-owning, nullable view of the dead-peer set; the
  /// caller keeps it alive and may grow it between (not during)
  /// concurrent probe phases. loss_rate must be in [0, 1).
  FaultySpace(const core::LatencySpace& inner, double loss_rate,
              std::uint64_t seed,
              const std::unordered_set<NodeId>* crashed = nullptr);

  NodeId size() const override { return inner_->size(); }

  LatencyMs Latency(NodeId a, NodeId b) const override;

  /// Re-points the crashed-set view (nullptr detaches). Used by the
  /// scenario engine, which constructs the space stack before the churn
  /// driver that owns the set.
  void set_crashed(const std::unordered_set<NodeId>* crashed) {
    crashed_ = crashed;
  }

  /// Forgets every per-pair attempt count and restarts the loss stream
  /// at `seed`, as in a new decorator seeded so.
  void Reseed(std::uint64_t seed) { stream_.Reset(seed); }

 private:
  const core::LatencySpace* inner_;
  double loss_rate_;
  /// Per-pair attempt stream, bounded like NoisySpace's.
  mutable util::PairStream stream_;
  const std::unordered_set<NodeId>* crashed_;
};

}  // namespace np::matrix
