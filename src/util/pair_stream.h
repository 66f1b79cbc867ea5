// Order-robust per-pair random stream with a bounded pair tracker.
//
// The stateful probe decorators (NoisySpace jitter, FaultySpace loss,
// PartitionedSpace grey loss) all draw the k-th probe of the unordered
// pair {a, b} from Mix64(Mix64(seed ^ PairKey(a, b)) ^ k): a pure
// function of (seed, pair, per-pair probe count). Reordering probes
// across different pairs cannot move a draw, while re-probing the same
// pair sees fresh randomness.
//
// The per-pair counts are bounded at kMaxTrackedPairs distinct pairs.
// The probe that finds the tracker full starts a new generation: the
// counts are cleared and the seed is re-mixed (seed = Mix64(seed)), a
// pure function of the probe sequence, so still deterministic. Order
// robustness is therefore guaranteed *within a generation*.
// Query-scale instances probe a few thousand pairs and never flush;
// only a long-lived maintenance instance over a very large build can,
// and there the generation boundary — not the values inside one — is
// what probe order can move.
//
// The tracker is a util::FlatCountTable: one flat array of {pair,
// count} slots, allocated on the first probe. A flush empties every
// slot and keeps the array, and so does Reset(seed), which returns the
// stream to exactly the state of a new PairStream(seed). A query worker
// resets one stream per query instead of building one, so in steady
// state a query allocates nothing here.
//
// Not thread-safe: Next() mutates the tracker. Owners keep one stream
// per call-site-private decorator instance.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/flat_count_table.h"
#include "util/rng.h"

namespace np::util {

class PairStream {
 public:
  /// At the cap the tracker is 2^21 slots of 16 bytes (32 MB; 48 MB
  /// for the moment the 2^20-slot array is copied into it) — small next
  /// to the O(n * d) implicit backends, unreachable for per-query
  /// instances.
  static constexpr std::size_t kMaxTrackedPairs = std::size_t{1} << 20;

  explicit PairStream(std::uint64_t seed) : seed_(seed) {}

  /// Mixed seed of the next probe of {a, b} (symmetric in a and b).
  std::uint64_t Next(std::int64_t a, std::int64_t b) {
    if (counts_.size() >= kMaxTrackedPairs) {
      counts_.Clear();
      seed_ = Mix64(seed_);
    }
    const std::uint64_t pair = PairKey(a, b);
    const std::uint64_t count = counts_.Increment(pair);
    return Mix64(Mix64(seed_ ^ pair) ^ count);
  }

  /// Forgets every count and restarts at `seed`: every later draw
  /// equals that of a new PairStream(seed). The tracker's array stays.
  void Reset(std::uint64_t seed) {
    counts_.Clear();
    seed_ = seed;
  }

  /// The current generation's seed.
  std::uint64_t seed() const { return seed_; }
  /// Distinct pairs probed in the current generation.
  std::size_t tracked_pairs() const { return counts_.size(); }

 private:
  std::uint64_t seed_;
  /// Probes already issued per unordered pair in this generation.
  FlatCountTable counts_;
};

}  // namespace np::util
