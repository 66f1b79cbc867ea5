// The key-value mapping infrastructure §5's decentralized hints rely
// on. Two backends: a perfect in-memory map (the paper's evaluation
// "assume[s] a perfect key-value map here for both approaches") and a
// Chord-backed map that accounts DHT routing hops (Ablation E).
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dht/chord.h"
#include "util/rng.h"
#include "util/types.h"

namespace np::mech {

/// Packs a (peer, latency) pair into a 64-bit map value: latency in
/// 10 us units (saturating) in the high 32 bits, peer id in the low 32.
std::uint64_t EncodePeerLatency(NodeId peer, LatencyMs latency_ms);
NodeId DecodePeer(std::uint64_t value);
LatencyMs DecodeLatency(std::uint64_t value);

/// What the §5 directories call on their map.
class KeyValueMap {
 public:
  virtual ~KeyValueMap() = default;

  /// Appends a value under the key (multimap semantics).
  virtual void Put(std::uint64_t key, std::uint64_t value,
                   util::Rng& rng) = 0;

  /// All values stored under the key.
  virtual std::vector<std::uint64_t> Get(std::uint64_t key,
                                         util::Rng& rng) const = 0;

  /// Erases one stored copy of `value` under `key` (no-op when absent
  /// — departure notices may race or repeat in a real deployment).
  /// This is what lets the §5 directories unregister a leaving peer
  /// instead of being rebuilt from scratch every epoch.
  virtual void Remove(std::uint64_t key, std::uint64_t value,
                      util::Rng& rng) = 0;
};

/// Idealized map: exactly what §5's preliminary evaluation assumes.
/// Get only reads, so concurrent queries may share one map; Put/Remove
/// require exclusive access (they mutate the store). A plain value: a
/// hybrid's snapshot clone copies it.
class PerfectMap final : public KeyValueMap {
 public:
  void Put(std::uint64_t key, std::uint64_t value, util::Rng& rng) override;
  std::vector<std::uint64_t> Get(std::uint64_t key,
                                 util::Rng& rng) const override;
  void Remove(std::uint64_t key, std::uint64_t value,
              util::Rng& rng) override;
  /// A perfect map routes in zero hops.
  std::uint64_t total_hops() const { return 0; }

 private:
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> store_;
};

/// Chord-backed map: keys are hashed onto the ring (§5's prescription
/// for non-uniform keys such as IP prefixes), and every operation pays
/// O(log n) routing hops.
class ChordMap final : public KeyValueMap {
 public:
  /// The ring is hosted by the given peers.
  ChordMap(std::vector<NodeId> ring_members, std::uint64_t id_salt);

  void Put(std::uint64_t key, std::uint64_t value, util::Rng& rng) override;
  std::vector<std::uint64_t> Get(std::uint64_t key,
                                 util::Rng& rng) const override;
  void Remove(std::uint64_t key, std::uint64_t value,
              util::Rng& rng) override;
  /// Cumulative routing hops spent on Put/Get/Remove.
  std::uint64_t total_hops() const {
    return hops_.load(std::memory_order_relaxed);
  }
  std::uint64_t operation_count() const {
    return operations_.load(std::memory_order_relaxed);
  }

  const dht::ChordRing& ring() const { return ring_; }

 private:
  dht::ChordRing ring_;
  /// Hop/operation tallies mutate under const Get, so they are relaxed
  /// atomics: concurrent queries may share the map read-only.
  mutable std::atomic<std::uint64_t> hops_{0};
  mutable std::atomic<std::uint64_t> operations_{0};
};

}  // namespace np::mech
