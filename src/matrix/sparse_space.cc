#include "matrix/sparse_space.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/contract.h"
#include "util/error.h"
#include "util/rng.h"

namespace np::matrix {

namespace {

/// Weights are whole numbers of 2^-10 ms units.
constexpr double kUnitsPerMs = 1024.0;
constexpr double kMsPerUnit = 1.0 / kUnitsPerMs;

/// Quantizes a weight to a whole number (>= 1) of 2^-10 ms units. Any
/// sum of such weights below 2^53 units converts to ms exactly, which
/// is what makes shortest-path latencies direction- and
/// evaluation-order-independent bitwise.
double WeightUnits(double ms) {
  return std::max(std::round(ms * kUnitsPerMs), 1.0);
}

/// log2 of the bucket width: the largest power of two <= min_units.
int BucketShift(std::uint64_t min_units) {
  return static_cast<int>(std::bit_width(min_units)) - 1;
}

/// Bucket ring size: every tentative distance lies within max_units of
/// the bucket being scanned, so it spans at most
/// (max_units >> shift) + 2 buckets and never aliases the scanned one.
std::size_t BucketCount(std::uint64_t max_units, int shift) {
  return std::bit_ceil(static_cast<std::size_t>((max_units >> shift) + 2));
}

constexpr std::uint64_t kUnreached = ~std::uint64_t{0};

/// One queued relaxation: the node and its distance's offset inside
/// the bucket (the bucket index supplies the high bits).
struct BucketEntry {
  std::uint32_t node;
  std::uint32_t offset;
};

/// Per-thread kernel scratch. Every call resets `dist` and leaves
/// every bucket empty, so no value crosses calls.
struct KernelScratch {
  std::vector<std::uint64_t> dist;
  std::vector<std::vector<BucketEntry>> buckets;
};

}  // namespace

void ValidateSparseConfig(const SparseTopologyConfig& config) {
  NP_ENSURE(config.num_nodes >= 2, "SparseTopologySpace requires n >= 2");
  NP_ENSURE(config.extra_edges_per_node >= 0, "negative edge budget");
  NP_ENSURE(config.min_edge_ms > 0.0 &&
                config.max_edge_ms >= config.min_edge_ms,
            "invalid edge weight range");
  NP_ENSURE(config.row_cache_capacity >= 1, "need at least one cached row");
  NP_ENSURE(WeightUnits(config.max_edge_ms) < 0x1p32,
            "max_edge_ms too large: max_edge_ms * 1024 must stay below "
            "2^32 (about 4.19e6 ms) for exact integer path sums");
  const auto min_units =
      static_cast<std::uint64_t>(WeightUnits(config.min_edge_ms));
  const auto max_units =
      static_cast<std::uint64_t>(WeightUnits(config.max_edge_ms));
  NP_ENSURE((max_units >> BucketShift(min_units)) < (std::uint64_t{1} << 16),
            "max_edge_ms / min_edge_ms too wide: the shortest-path bucket "
            "ring would need 2^16 or more buckets (keep the ratio below "
            "about 2^15)");
  NP_ENSURE(static_cast<std::uint64_t>(config.num_nodes - 1) * max_units <
                (std::uint64_t{1} << 53),
            "num_nodes * max_edge_ms too large: a path sum could reach "
            "2^53 units (2^-10 ms each) and stop being exact");
}

SparseTopologySpace::SparseTopologySpace(const SparseTopologyConfig& config)
    : config_(config) {
  ValidateSparseConfig(config_);

  const auto n = static_cast<std::size_t>(config_.num_nodes);
  util::Rng rng(util::Mix64(config_.seed));
  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> adjacency(n);
  const auto add_edge = [&](NodeId a, NodeId b) {
    const auto w = static_cast<std::uint32_t>(
        WeightUnits(rng.Uniform(config_.min_edge_ms, config_.max_edge_ms)));
    adjacency[static_cast<std::size_t>(a)].push_back({b, w});
    adjacency[static_cast<std::size_t>(b)].push_back({a, w});
    ++edge_count_;
  };

  // Connectivity ring: every node reaches every other.
  for (NodeId v = 0; v < config_.num_nodes; ++v) {
    add_edge(v, v + 1 == config_.num_nodes ? 0 : v + 1);
  }
  // Random shortcuts (parallel edges are harmless: the kernel takes
  // the cheaper relaxation).
  for (NodeId v = 0; v < config_.num_nodes; ++v) {
    for (int e = 0; e < config_.extra_edges_per_node; ++e) {
      const auto other = static_cast<NodeId>(rng.Index(n));
      if (other == v) {
        continue;
      }
      add_edge(v, other);
    }
  }

  offsets_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    offsets_[v + 1] = offsets_[v] + adjacency[v].size();
  }
  neighbors_.resize(offsets_[n]);
  weight_units_.resize(offsets_[n]);
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t at = offsets_[v];
    for (const auto& [to, w] : adjacency[v]) {
      neighbors_[at] = to;
      weight_units_[at] = w;
      ++at;
    }
  }
  // The ring guarantees at least n edges.
  const auto [lightest, heaviest] =
      std::minmax_element(weight_units_.begin(), weight_units_.end());
  bucket_shift_ = BucketShift(*lightest);
  bucket_count_ = BucketCount(*heaviest, bucket_shift_);
}

std::vector<std::pair<NodeId, LatencyMs>> SparseTopologySpace::Edges(
    NodeId v) const {
  std::vector<std::pair<NodeId, LatencyMs>> edges;
  for (std::size_t e = offsets_[static_cast<std::size_t>(v)];
       e < offsets_[static_cast<std::size_t>(v) + 1]; ++e) {
    edges.emplace_back(neighbors_[e], weight_units_[e] * kMsPerUnit);
  }
  return edges;
}

std::vector<LatencyMs> SparseTopologySpace::Dijkstra(NodeId source) const {
  const auto n = static_cast<std::size_t>(config_.num_nodes);
  NP_LINT_SUPPRESS("static-state",
                   "kernel scratch only: every call resets it, so no "
                   "value crosses calls or depends on the thread");
  thread_local KernelScratch scratch;
  std::vector<std::uint64_t>& dist = scratch.dist;
  std::vector<std::vector<BucketEntry>>& buckets = scratch.buckets;
  dist.assign(n, kUnreached);
  if (buckets.size() < bucket_count_) {
    buckets.resize(bucket_count_);
  }
  const int shift = bucket_shift_;
  const std::uint64_t offset_mask = (std::uint64_t{1} << shift) - 1;
  const std::uint64_t ring_mask = bucket_count_ - 1;

  dist[static_cast<std::size_t>(source)] = 0;
  buckets[0].push_back({static_cast<std::uint32_t>(source), 0});
  std::size_t queued = 1;
  for (std::uint64_t bucket = 0; queued > 0; ++bucket) {
    std::vector<BucketEntry>& entries = buckets[bucket & ring_mask];
    // Relaxing from this bucket adds at least the bucket width, so it
    // only lands in later buckets: this one neither grows while it is
    // scanned nor holds a node that is not final.
    for (const BucketEntry entry : entries) {
      const std::uint64_t d = (bucket << shift) | entry.offset;
      if (dist[entry.node] != d) {
        continue;  // stale: the node was reached more cheaply since
      }
      const std::size_t end = offsets_[entry.node + 1];
      for (std::size_t e = offsets_[entry.node]; e < end; ++e) {
        const auto to = static_cast<std::size_t>(neighbors_[e]);
        const std::uint64_t candidate = d + weight_units_[e];
        if (candidate < dist[to]) {
          dist[to] = candidate;
          buckets[(candidate >> shift) & ring_mask].push_back(
              {static_cast<std::uint32_t>(to),
               static_cast<std::uint32_t>(candidate & offset_mask)});
          ++queued;
        }
      }
    }
    queued -= entries.size();
    entries.clear();
  }

  std::vector<LatencyMs> row(n);
  for (std::size_t v = 0; v < n; ++v) {
    row[v] = dist[v] == kUnreached
                 ? kInfiniteLatency
                 : static_cast<double>(dist[v]) * kMsPerUnit;
  }
  return row;
}

LatencyMs SparseTopologySpace::Latency(NodeId a, NodeId b) const {
  NP_DCHECK(a >= 0 && a < config_.num_nodes, "node id out of range");
  NP_DCHECK(b >= 0 && b < config_.num_nodes, "node id out of range");
  if (a == b) {
    return 0.0;
  }
  const auto touch = [this](decltype(lookup_)::iterator it) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // move to MRU
  };
  {
    // Either endpoint's row answers (quantized weights make the two
    // bitwise equal); prefer whichever is already resident — callers
    // conventionally scan many sources against one target in the
    // second slot, so try b's row first.
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = lookup_.find(b); it != lookup_.end()) {
      touch(it);
      return it->second->second[static_cast<std::size_t>(a)];
    }
    if (const auto it = lookup_.find(a); it != lookup_.end()) {
      touch(it);
      return it->second->second[static_cast<std::size_t>(b)];
    }
    ++stats_.misses;
  }
  // Double miss: compute b's row outside the lock so concurrent
  // probes only contend on the bookkeeping. Two threads missing the
  // same row may both compute it; the loser's copy is discarded —
  // harmless, the rows are value-identical by construction.
  std::vector<LatencyMs> row = Dijkstra(b);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = lookup_.find(b);
  if (it != lookup_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second[static_cast<std::size_t>(a)];
  }
  if (lru_.size() >= config_.row_cache_capacity) {
    ++stats_.evictions;
    lookup_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(b, std::move(row));
  lookup_[b] = lru_.begin();
  return lru_.front().second[static_cast<std::size_t>(a)];
}

SparseTopologySpace::CacheStats SparseTopologySpace::cache_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t SparseTopologySpace::cached_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace np::matrix
