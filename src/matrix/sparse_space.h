// Implicit shortest-path latency backend over a sparse topology.
//
// The second non-materialized backend: instead of an n x n matrix it
// stores a sparse undirected graph (a connectivity ring plus random
// shortcut links, O(n * degree) memory) and answers Latency(a, b) as
// the shortest-path distance, computing single-source distance rows
// on demand and keeping the most recently used rows in an LRU cache.
// The query loops probe many sources against one target, so a probe
// caches the *target's* row and every member scan after the first is
// a cache hit.
//
// Row kernel: edge weights are whole numbers of 2^-10 ms units, stored
// as uint32_t, and a row is an integer Dijkstra over a Dinitz/Dial
// bucket queue. Bucket width is the largest power of two <= the
// lightest edge, so every node in the lowest non-empty bucket is
// final; the buckets form a circular array indexed by
// (distance >> shift) & mask, and stale entries are skipped when
// popped. Distances and buckets are per-thread scratch reused across
// misses, so a miss allocates only the row it stores.
//
// Determinism contract: the graph is a pure function of the config
// seed, and every path sum is an exact integer number of units, so a
// row entry (units / 1024.0) is exactly the shortest-path length —
// Latency(a, b) is bitwise equal to Latency(b, a) and independent of
// cache state, probe order, and thread count. ValidateSparseConfig
// rejects weight ranges the contract cannot cover: a quantized
// max_edge_ms of 2^32 units or more, a max/min weight ratio that
// needs 2^16 or more buckets, and graphs whose longest simple path
// could reach 2^53 units. Cache bookkeeping is mutex-guarded but the
// kernel runs outside the lock, so concurrent probes contend only on
// the bookkeeping (two threads missing the same row may compute it
// twice and one copy is discarded — value-identical by construction,
// which the determinism contract makes invisible).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/latency_space.h"
#include "util/types.h"

namespace np::matrix {

struct SparseTopologyConfig {
  NodeId num_nodes = 1000;
  /// Random shortcut edges added per node on top of the connectivity
  /// ring (so total degree averages 2 + 2 * extra_edges_per_node).
  int extra_edges_per_node = 3;
  /// Edge weights uniform in [min, max] ms, then quantized to 2^-10 ms
  /// (see the determinism contract above for the accepted range).
  double min_edge_ms = 1.0;
  double max_edge_ms = 50.0;
  /// Single-source distance rows kept resident (n doubles each).
  std::size_t row_cache_capacity = 64;
  std::uint64_t seed = 1;
};

/// Throws util::Error, naming the offending key, unless the config is
/// one the exact row kernel covers (see the determinism contract).
/// The constructor runs it; np_run runs it on every spec.
void ValidateSparseConfig(const SparseTopologyConfig& config);

class SparseTopologySpace final : public core::LatencySpace {
 public:
  explicit SparseTopologySpace(const SparseTopologyConfig& config);

  NodeId size() const override { return config_.num_nodes; }

  /// Shortest-path latency; 0 for a == b. Thread-safe.
  LatencyMs Latency(NodeId a, NodeId b) const override;

  const SparseTopologyConfig& config() const { return config_; }

  /// Undirected edge count (each counted once).
  std::size_t edge_count() const { return edge_count_; }

  /// v's incident edges as (neighbor, weight in ms), in storage order.
  std::vector<std::pair<NodeId, LatencyMs>> Edges(NodeId v) const;

  /// Cache observability for tests and capacity tuning.
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  CacheStats cache_stats() const;
  std::size_t cached_rows() const;

 private:
  std::vector<LatencyMs> Dijkstra(NodeId source) const;

  SparseTopologyConfig config_;
  // CSR adjacency: neighbors/weights of node v live in
  // [offsets_[v], offsets_[v + 1]); weights in 2^-10 ms units.
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> neighbors_;
  std::vector<std::uint32_t> weight_units_;
  std::size_t edge_count_ = 0;
  /// Bucket queue geometry: width 2^bucket_shift_ units, ring of
  /// bucket_count_ (a power of two) buckets.
  int bucket_shift_ = 0;
  std::size_t bucket_count_ = 0;

  mutable std::mutex mu_;
  /// MRU-first list of (source, row); lookup_ maps source -> node.
  mutable std::list<std::pair<NodeId, std::vector<LatencyMs>>> lru_;
  mutable std::unordered_map<
      NodeId, std::list<std::pair<NodeId, std::vector<LatencyMs>>>::iterator>
      lookup_;
  mutable CacheStats stats_;
};

}  // namespace np::matrix
