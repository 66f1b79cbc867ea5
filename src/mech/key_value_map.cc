#include "mech/key_value_map.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace np::mech {

namespace {
constexpr double kLatencyUnitMs = 0.01;  // 10 us
}  // namespace

std::uint64_t EncodePeerLatency(NodeId peer, LatencyMs latency_ms) {
  NP_ENSURE(peer >= 0, "peer id must be non-negative");
  NP_ENSURE(latency_ms >= 0.0, "latency must be non-negative");
  const double units = std::round(latency_ms / kLatencyUnitMs);
  const std::uint64_t quantized = static_cast<std::uint64_t>(
      std::min(units, 4294967295.0));
  return (quantized << 32) | static_cast<std::uint32_t>(peer);
}

NodeId DecodePeer(std::uint64_t value) {
  return static_cast<NodeId>(value & 0xffffffffu);
}

LatencyMs DecodeLatency(std::uint64_t value) {
  return static_cast<double>(value >> 32) * kLatencyUnitMs;
}

void PerfectMap::Put(std::uint64_t key, std::uint64_t value,
                     util::Rng& rng) {
  (void)rng;
  store_[key].push_back(value);
}

std::vector<std::uint64_t> PerfectMap::Get(std::uint64_t key,
                                           util::Rng& rng) const {
  (void)rng;
  const auto it = store_.find(key);
  if (it == store_.end()) {
    return {};
  }
  return it->second;
}

void PerfectMap::Remove(std::uint64_t key, std::uint64_t value,
                        util::Rng& rng) {
  (void)rng;
  const auto it = store_.find(key);
  if (it == store_.end()) {
    return;
  }
  auto& values = it->second;
  const auto vit = std::find(values.begin(), values.end(), value);
  if (vit == values.end()) {
    return;
  }
  values.erase(vit);
  if (values.empty()) {
    store_.erase(it);
  }
}

ChordMap::ChordMap(std::vector<NodeId> ring_members, std::uint64_t id_salt)
    : ring_(std::move(ring_members), dht::ChordConfig{id_salt}) {}

void ChordMap::Put(std::uint64_t key, std::uint64_t value, util::Rng& rng) {
  const auto route = ring_.Put(dht::HashToRing(key), value, rng);
  hops_.fetch_add(static_cast<std::uint64_t>(route.hops),
                  std::memory_order_relaxed);
  operations_.fetch_add(1, std::memory_order_relaxed);
}

void ChordMap::Remove(std::uint64_t key, std::uint64_t value,
                      util::Rng& rng) {
  const auto route = ring_.Remove(dht::HashToRing(key), value, rng);
  hops_.fetch_add(static_cast<std::uint64_t>(route.hops),
                  std::memory_order_relaxed);
  operations_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint64_t> ChordMap::Get(std::uint64_t key,
                                         util::Rng& rng) const {
  dht::ChordRing::LookupResult route;
  const auto values = ring_.Get(dht::HashToRing(key), rng, &route);
  hops_.fetch_add(static_cast<std::uint64_t>(route.hops),
                  std::memory_order_relaxed);
  operations_.fetch_add(1, std::memory_order_relaxed);
  return values;
}

}  // namespace np::mech
