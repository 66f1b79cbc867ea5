// The latency-space abstraction every nearest-peer algorithm runs on.
//
// A LatencySpace answers "what is the RTT between node a and node b".
// Implementations are matrix-backed (the §4 simulations) or
// topology-backed (the §3/§5 synthetic Internet). MeteredSpace wraps a
// space and counts probes, which is how the experiment runner accounts
// for the paper's "number of latency probes performed" lower bound.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>

#include "core/probe_counter.h"
#include "matrix/latency_matrix.h"
#include "util/pair_stream.h"
#include "util/rng.h"
#include "util/types.h"

namespace np::core {

class LatencySpace {
 public:
  virtual ~LatencySpace() = default;

  /// Number of nodes; valid ids are [0, size).
  virtual NodeId size() const = 0;

  /// Round-trip latency in ms between two nodes; 0 for a == b.
  virtual LatencyMs Latency(NodeId a, NodeId b) const = 0;

  /// The member of `members` closest to `target`: skips `target`
  /// itself, breaks latency ties toward the lowest id, and stores the
  /// winner's latency in `*latency`. With no other candidate it returns
  /// kInvalidNode and kInfiniteLatency.
  ///
  /// The default probes Latency(m, target) for every candidate, in
  /// order, so a decorator that bills, perturbs or drops probes keeps
  /// doing so per pair. Only a backend whose answer is bit-identical to
  /// that loop may override it (EmbeddedSpace prunes candidates by a
  /// lower bound on their latency).
  virtual NodeId ClosestOf(NodeId target, std::span<const NodeId> members,
                           LatencyMs* latency) const;
};

/// Non-owning view over a LatencyMatrix. The matrix must outlive the
/// space (the experiment runner owns both).
class MatrixSpace final : public LatencySpace {
 public:
  explicit MatrixSpace(const matrix::LatencyMatrix& m) : m_(&m) {}

  NodeId size() const override { return m_->size(); }
  LatencyMs Latency(NodeId a, NodeId b) const override { return m_->At(a, b); }

 private:
  const matrix::LatencyMatrix* m_;
};

/// Measurement-noise decorator: each probe returns the true latency
/// with fresh multiplicative Gaussian jitter. This models the paper's
/// premise that algorithms "cannot reliably use the differences between
/// these latencies" — without it, a noise-free matrix lets triangulation
/// schemes (e.g. Beaconing) distinguish equidistant peers by exact
/// arithmetic, which no real deployment can.
///
/// Jitter determinism: the k-th probe of the unordered pair {a, b}
/// draws from an Rng seeded Mix64(Mix64(seed ^ PairKey(a, b)) ^ k) —
/// a pure function of (seed, pair, per-pair probe count). So the
/// noise is order-robust (reordering probes across different pairs
/// cannot shift any measured value — an algorithm refactor that
/// reorders its probes leaves metrics bit-identical) and symmetric
/// per probe (the k-th probe of (a, b) equals the k-th probe of
/// (b, a)), while re-probing the same pair still sees fresh noise,
/// as a real deployment would. The previous implementation drew all
/// pairs from one sequential stream, which silently tied measured
/// values to probe order and broke within-query symmetry.
///
/// Caveat: the per-pair tracker is util::PairStream's flat table
/// (util::FlatCountTable, one array allocated on the first jittered
/// probe), bounded at PairStream::kMaxTrackedPairs distinct pairs;
/// crossing it empties the table and starts a new generation (fresh
/// stream seed), so order-robustness is guaranteed *within a
/// generation* (see util/pair_stream.h).
///
/// Not thread-safe: the per-pair counters mutate under Latency().
/// Every call site owns a private instance (one per query worker,
/// reseeded per query, or one for the serial build/maintenance path —
/// which may live across a whole scenario run), which is also what
/// keeps the parallel query loops deterministic.
class NoisySpace final : public LatencySpace {
 public:
  /// jitter_frac scales with the RTT (path-length effects);
  /// floor_ms is the absolute component every real measurement carries
  /// (queueing, kernel scheduling) regardless of distance.
  NoisySpace(const LatencySpace& inner, double jitter_frac,
             std::uint64_t seed, double floor_ms = 0.0)
      : inner_(&inner),
        jitter_frac_(jitter_frac),
        floor_ms_(floor_ms),
        stream_(seed) {}

  NodeId size() const override { return inner_->size(); }

  LatencyMs Latency(NodeId a, NodeId b) const override {
    const LatencyMs true_ms = inner_->Latency(a, b);
    if (a == b || (jitter_frac_ <= 0.0 && floor_ms_ <= 0.0)) {
      return true_ms;
    }
    util::Rng rng(stream_.Next(a, b));
    double noisy = true_ms;
    if (jitter_frac_ > 0.0) {
      noisy += true_ms * rng.Gaussian(0.0, jitter_frac_);
    }
    if (floor_ms_ > 0.0) {
      noisy += rng.Gaussian(0.0, floor_ms_);
    }
    return std::max(noisy, 0.001);
  }

  /// Forgets every per-pair count and restarts the jitter at `seed`:
  /// the decorator then probes exactly as a new one seeded so.
  void Reseed(std::uint64_t seed) { stream_.Reset(seed); }

 private:
  const LatencySpace* inner_;
  double jitter_frac_;
  double floor_ms_;
  mutable util::PairStream stream_;
};

/// Probe-counting decorator. Algorithms receive a MeteredSpace so that
/// every latency measurement they perform is accounted; reads of the
/// same pair are counted each time (a real system pays for each probe).
///
/// The counter is a relaxed atomic so ParallelBuild paths may probe
/// through one shared meter from many threads: the total is exact
/// (additions commute) and therefore thread-count invariant, which is
/// what keeps build_messages deterministic for parallel builds.
///
/// An optional PerNodeLedger additionally attributes each probe to the
/// peer that answers it (the first Latency argument — the convention
/// every algorithm here follows: candidate first, target second). The
/// ledger's adds are atomic too, so sharing it across query threads is
/// safe.
class MeteredSpace final : public LatencySpace {
 public:
  explicit MeteredSpace(const LatencySpace& inner,
                        PerNodeLedger* ledger = nullptr)
      : inner_(&inner), ledger_(ledger) {}

  NodeId size() const override { return inner_->size(); }

  LatencyMs Latency(NodeId a, NodeId b) const override {
    probes_.fetch_add(1, std::memory_order_relaxed);
    if (ledger_ != nullptr) {
      ledger_->Record(a);
    }
    return inner_->Latency(a, b);
  }

  std::uint64_t probes() const {
    return probes_.load(std::memory_order_relaxed);
  }
  void ResetProbes() const { probes_.store(0, std::memory_order_relaxed); }

 private:
  const LatencySpace* inner_;
  PerNodeLedger* ledger_;
  mutable std::atomic<std::uint64_t> probes_{0};
};

}  // namespace np::core
