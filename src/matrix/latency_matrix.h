// Dense symmetric latency matrix.
//
// The Meridian-style simulations (paper §4) run on inter-peer latency
// matrices of a few thousand nodes. Storage is a full row-major n x n
// array (both mirror entries materialized, zero diagonal): twice the
// memory of a packed triangle (~50 MB at n = 2500) but every row scan
// is contiguous, At() is a single indexed load with no swap/branch,
// and the Floyd-Warshall repair can run blocked over cache-sized tiles
// and in parallel over row bands.
//
// Threading: MetricRepair takes a thread-count knob (0 =
// hardware_concurrency). Results are bit-identical for every thread
// count: within a phase, workers only partition independent
// tiles, so the same IEEE operations happen regardless of who runs
// them. Versus the serial reference the *tile schedule* itself can
// associate path sums differently, so blocked and serial agree
// bitwise only when all sums are exactly representable (e.g. grid
// inputs) and to rounding (ulps) otherwise.
#pragma once

#include <cstddef>
#include <vector>

#include "util/error.h"
#include "util/types.h"

namespace np::matrix {

class LatencyMatrix {
 public:
  /// Creates an n x n matrix with zero diagonal and `fill` elsewhere.
  explicit LatencyMatrix(NodeId n, LatencyMs fill = 0.0);

  NodeId size() const { return n_; }

  /// Latency between a and b; 0 for a == b. Hot path: bounds are
  /// debug-checked only (NP_DCHECK); mutators keep full checks.
  LatencyMs At(NodeId a, NodeId b) const {
    NP_DCHECK(a >= 0 && a < n_, "node id out of range");
    NP_DCHECK(b >= 0 && b < n_, "node id out of range");
    return store_[Index(a, b)];
  }

  /// Contiguous row of latencies from `from` to every node (index i ->
  /// At(from, i), diagonal entry 0). Valid until the next mutation.
  const LatencyMs* RowPtr(NodeId from) const {
    NP_DCHECK(from >= 0 && from < n_, "node id out of range");
    return store_.data() + static_cast<std::size_t>(from) * nn_;
  }

  /// Copies row `from` into `out` (resized to n). Allocation-free once
  /// `out` has capacity.
  void Row(NodeId from, std::vector<LatencyMs>& out) const;

  /// Sets the symmetric entry (a, b). a != b; latency >= 0.
  void Set(NodeId a, NodeId b, LatencyMs value);

  /// True if every entry is finite, non-negative, the diagonal zero,
  /// and the matrix symmetric.
  bool IsValid() const;

  /// Largest triangle-inequality violation ratio:
  ///   max over (i,j,k) of At(i,j) / (At(i,k) + At(k,j)), minus 1.
  /// 0 means a proper metric. O(n^3), serial.
  double MaxTriangleViolation() const;

  /// Enforces the triangle inequality by relaxing each entry to the
  /// shortest path through any intermediate node (Floyd-Warshall).
  /// After repair the matrix is a metric. O(n^3), blocked over
  /// cache-sized tiles and parallel over tile bands; num_threads 0 =
  /// hardware_concurrency. Bit-identical across thread counts; agrees
  /// with MetricRepairSerial() to rounding (bitwise when every path
  /// sum is exactly representable — see the header comment).
  void MetricRepair(int num_threads = 0);

  /// Reference implementation of MetricRepair: the classic triple loop,
  /// single-threaded, no tiling. Kept as the baseline the blocked
  /// version is tested and benchmarked against.
  void MetricRepairSerial();

 private:
  void CheckNode(NodeId a) const {
    NP_ENSURE(a >= 0 && a < n_, "node id out of range");
  }

  // Row-major index; valid for the diagonal too.
  std::size_t Index(NodeId a, NodeId b) const {
    return static_cast<std::size_t>(a) * nn_ + static_cast<std::size_t>(b);
  }

  NodeId n_;
  std::size_t nn_;  // cached static_cast<std::size_t>(n_)
  std::vector<LatencyMs> store_;
};

}  // namespace np::matrix
