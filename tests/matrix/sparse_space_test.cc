// SparseTopologySpace: graph determinism, bitwise symmetry and
// cache-state independence of the shortest-path latencies, metric
// properties, the bucket-queue row kernel against a textbook heap
// Dijkstra (serial and from 8 threads), the exactness-range check, and
// the LRU row cache's hit/eviction bookkeeping.
#include "matrix/sparse_space.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace np::matrix {
namespace {

SparseTopologyConfig SmallConfig() {
  SparseTopologyConfig config;
  config.num_nodes = 100;
  config.extra_edges_per_node = 3;
  config.min_edge_ms = 1.0;
  config.max_edge_ms = 40.0;
  config.row_cache_capacity = 8;
  config.seed = 11;
  return config;
}

TEST(SparseTopologySpace, DeterministicConnectedZeroDiagonal) {
  const SparseTopologySpace a(SmallConfig());
  const SparseTopologySpace b(SmallConfig());
  ASSERT_EQ(a.size(), 100);
  EXPECT_GE(a.edge_count(), 100u);  // ring at minimum
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (NodeId i = 0; i < a.size(); i += 9) {
    EXPECT_EQ(a.Latency(i, i), 0.0);
    for (NodeId j = 0; j < a.size(); j += 7) {
      if (i == j) {
        continue;
      }
      const LatencyMs ij = a.Latency(i, j);
      EXPECT_TRUE(std::isfinite(ij));  // the ring keeps it connected
      EXPECT_GT(ij, 0.0);
      EXPECT_EQ(ij, b.Latency(i, j));
    }
  }
}

TEST(SparseTopologySpace, BitwiseSymmetricAndCacheStateIndependent) {
  // Quantized edge weights make every path sum exact, so the latency
  // must be bitwise equal in both directions and no matter which rows
  // happen to be resident when it is asked.
  const SparseTopologySpace warm(SmallConfig());
  for (NodeId i = 0; i < warm.size(); i += 5) {
    for (NodeId j = i + 1; j < warm.size(); j += 11) {
      EXPECT_EQ(warm.Latency(i, j), warm.Latency(j, i));
    }
  }
  // A fresh instance probed in the opposite order (different cache
  // trajectory) must agree bitwise.
  const SparseTopologySpace cold(SmallConfig());
  for (NodeId i = warm.size() - 1; i >= 0; i -= 5) {
    for (NodeId j = 0; j < i; j += 11) {
      EXPECT_EQ(cold.Latency(j, i), warm.Latency(j, i));
    }
  }
}

TEST(SparseTopologySpace, ShortestPathsSatisfyTheTriangleInequality) {
  const SparseTopologySpace space(SmallConfig());
  for (NodeId a = 0; a < space.size(); a += 13) {
    for (NodeId b = 1; b < space.size(); b += 17) {
      for (NodeId c = 2; c < space.size(); c += 19) {
        EXPECT_LE(space.Latency(a, c),
                  space.Latency(a, b) + space.Latency(b, c) + 1e-12);
      }
    }
  }
}

/// Textbook binary-heap Dijkstra over the space's own edges, in ms
/// doubles: the oracle the bucket-queue kernel must match bitwise.
std::vector<LatencyMs> OracleRow(const SparseTopologySpace& space,
                                 NodeId source) {
  std::vector<LatencyMs> dist(static_cast<std::size_t>(space.size()),
                              kInfiniteLatency);
  using Entry = std::pair<LatencyMs, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  dist[static_cast<std::size_t>(source)] = 0.0;
  queue.push({0.0, source});
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > dist[static_cast<std::size_t>(v)]) {
      continue;
    }
    for (const auto& [to, w] : space.Edges(v)) {
      if (d + w < dist[static_cast<std::size_t>(to)]) {
        dist[static_cast<std::size_t>(to)] = d + w;
        queue.push({d + w, to});
      }
    }
  }
  return dist;
}

std::vector<std::vector<LatencyMs>> OracleRows(
    const SparseTopologySpace& space) {
  std::vector<std::vector<LatencyMs>> rows;
  for (NodeId s = 0; s < space.size(); ++s) {
    rows.push_back(OracleRow(space, s));
  }
  return rows;
}

/// Every (v, s) latency of `space` bitwise equal to the oracle's.
void ExpectRowsMatchOracle(const SparseTopologyConfig& config) {
  const SparseTopologySpace space(config);
  const auto oracle = OracleRows(space);
  int mismatches = 0;
  for (NodeId s = 0; s < space.size(); ++s) {
    const auto& row = oracle[static_cast<std::size_t>(s)];
    for (NodeId v = 0; v < space.size(); ++v) {
      const LatencyMs want = row[static_cast<std::size_t>(v)];
      if (space.Latency(v, s) != want || space.Latency(s, v) != want) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(SparseTopologyKernel, MatchesHeapOracleOnSmallConfig) {
  ExpectRowsMatchOracle(SmallConfig());
}

TEST(SparseTopologyKernel, MatchesHeapOracleOnPureRing) {
  SparseTopologyConfig config = SmallConfig();
  config.extra_edges_per_node = 0;
  ExpectRowsMatchOracle(config);
}

TEST(SparseTopologyKernel, MatchesHeapOracleWithUniformWeights) {
  SparseTopologyConfig config = SmallConfig();
  config.min_edge_ms = 7.5;
  config.max_edge_ms = 7.5;
  ExpectRowsMatchOracle(config);
}

TEST(SparseTopologyKernel, MatchesHeapOracleAtBucketWidthOne) {
  // The lightest possible weight (one 2^-10 ms unit) forces width 1.
  SparseTopologyConfig config = SmallConfig();
  config.min_edge_ms = 1.0 / 1024.0;
  config.max_edge_ms = 40.0;
  ExpectRowsMatchOracle(config);
}

TEST(SparseTopologyKernel, MatchesHeapOracleOnWideWeightRange) {
  // Width 1024 units against 5,000 ms edges: a ring of 8192 buckets.
  SparseTopologyConfig config = SmallConfig();
  config.num_nodes = 300;
  config.min_edge_ms = 1.0;
  config.max_edge_ms = 5000.0;
  ExpectRowsMatchOracle(config);
}

TEST(SparseTopologyKernel, MatchesHeapOracleOnTwoNodes) {
  SparseTopologyConfig config = SmallConfig();
  config.num_nodes = 2;
  ExpectRowsMatchOracle(config);
}

TEST(SparseTopologyKernel, ConcurrentMissesMatchTheOracle) {
  // 8 threads miss rows at once through a 4-row cache: each thread
  // walks its own sources (distinct rows) and then the same shared
  // sources as every other thread (identical rows raced), so the
  // per-thread kernel scratch is exercised under contention.
  SparseTopologyConfig config = SmallConfig();
  config.row_cache_capacity = 4;
  const SparseTopologySpace space(config);
  const auto oracle = OracleRows(space);
  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<NodeId> sources;
      for (NodeId s = t; s < space.size(); s += kThreads) {
        sources.push_back(s);
      }
      for (int round = 0; round < 3; ++round) {
        for (NodeId s = 0; s < 16; ++s) {
          sources.push_back(s);
        }
      }
      for (const NodeId s : sources) {
        const auto& row = oracle[static_cast<std::size_t>(s)];
        for (NodeId v = 0; v < space.size(); ++v) {
          if (space.Latency(v, s) != row[static_cast<std::size_t>(v)]) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

/// The util::Error message ValidateSparseConfig throws, or "".
std::string RejectionOf(const SparseTopologyConfig& config) {
  try {
    ValidateSparseConfig(config);
  } catch (const util::Error& e) {
    return e.what();
  }
  return "";
}

TEST(SparseTopologyValidation, RejectsRangesOutsideTheExactnessContract) {
  SparseTopologyConfig config = SmallConfig();
  EXPECT_EQ(RejectionOf(config), "");

  // Quantized weights must stay below 2^32 units.
  config.max_edge_ms = 1e10;
  EXPECT_NE(RejectionOf(config).find("max_edge_ms too large"),
            std::string::npos);
  EXPECT_THROW(SparseTopologySpace{config}, util::Error);
  config.max_edge_ms = 4194303.0;  // 2^32 - 1024 units: accepted
  config.min_edge_ms = 4194303.0;
  EXPECT_EQ(RejectionOf(config), "");

  // The bucket ring must stay below 2^16 buckets.
  config.min_edge_ms = 1.0;  // width 1024 units
  config.max_edge_ms = 64.0 * 1024.0;
  EXPECT_NE(RejectionOf(config).find("max_edge_ms / min_edge_ms too wide"),
            std::string::npos);
  EXPECT_THROW(SparseTopologySpace{config}, util::Error);
  config.max_edge_ms = 63.0 * 1024.0;
  EXPECT_EQ(RejectionOf(config), "");

  // Every simple path sum must stay below 2^53 units.
  config.min_edge_ms = 4000000.0;
  config.max_edge_ms = 4000000.0;
  config.num_nodes = 1 << 22;
  EXPECT_NE(RejectionOf(config).find("num_nodes * max_edge_ms too large"),
            std::string::npos);
}

TEST(SparseTopologySpaceCache, HitsMissesAndEvictions) {
  SparseTopologyConfig config = SmallConfig();
  config.row_cache_capacity = 2;
  const SparseTopologySpace space(config);

  // Cold probe against target 10: one Dijkstra (miss), row 10 cached.
  space.Latency(0, 10);
  auto stats = space.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(space.cached_rows(), 1u);

  // Member scan against the same target: all hits on row 10.
  for (NodeId member = 1; member <= 5; ++member) {
    space.Latency(member, 10);
  }
  stats = space.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 5u);

  // Either-endpoint lookup: row 10 also answers (10, x) probes.
  space.Latency(10, 3);
  stats = space.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 6u);

  // Two new targets overflow capacity 2: the LRU row (10) is evicted.
  space.Latency(0, 20);
  space.Latency(0, 30);
  stats = space.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(space.cached_rows(), 2u);

  // Row 10 is gone: probing it again recomputes (and evicts row 20,
  // now the least recently used).
  space.Latency(0, 10);
  stats = space.cache_stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(space.cached_rows(), 2u);
}

TEST(SparseTopologySpaceCache, RecencyOrderGovernsEviction) {
  SparseTopologyConfig config = SmallConfig();
  config.row_cache_capacity = 2;
  const SparseTopologySpace space(config);
  space.Latency(0, 10);  // cache: [10]
  space.Latency(0, 20);  // cache: [20, 10]
  space.Latency(1, 10);  // hit refreshes 10 -> cache: [10, 20]
  space.Latency(0, 30);  // evicts 20, not 10
  const auto stats = space.cache_stats();
  EXPECT_EQ(stats.evictions, 1u);
  space.Latency(2, 10);  // still resident
  EXPECT_EQ(space.cache_stats().hits, 2u);
  EXPECT_EQ(space.cache_stats().misses, 3u);
}

TEST(SparseTopologySpaceCache, LongProbeSequencePinsCounters) {
  // A fixed pseudo-random 10,000-probe sequence at capacity 8, with
  // targets skewed toward a hot set so hits, misses and evictions are
  // all frequent. The exact counts pin the LRU policy (b's row first,
  // then a's; recompute b's row on a double miss) independently of the
  // row kernel.
  const SparseTopologySpace space(SmallConfig());
  util::Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const auto a = static_cast<NodeId>(rng.Index(100));
    const auto b = static_cast<NodeId>(
        rng.Bernoulli(0.7) ? rng.Index(12) : rng.Index(100));
    space.Latency(a, b);
  }
  const auto stats = space.cache_stats();
  EXPECT_EQ(stats.hits, 4046u);
  EXPECT_EQ(stats.misses, 5859u);
  EXPECT_EQ(stats.evictions, 5851u);
  EXPECT_EQ(space.cached_rows(), 8u);
}

}  // namespace
}  // namespace np::matrix
