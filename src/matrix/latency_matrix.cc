#include "matrix/latency_matrix.h"

#include <algorithm>
#include <cmath>

#include "util/parallel.h"

namespace np::matrix {
namespace {

// Tile edge for the blocked Floyd-Warshall. 128 x 128 doubles = 128 KB
// per tile: the three tiles a relaxation touches fit in L2 together,
// and the 128-wide inner loop amortizes the vectorized min-store well.
constexpr NodeId kTileSize = 128;

/// Relaxes d[i][j] = min(d[i][j], d[i][k] + d[k][j]) for i in
/// [i0, i1), j in [j0, j1), k in [k0, k1), with k outermost — the
/// order that makes the blocked schedule equivalent to the classic
/// triple loop. `d` is the full row-major n x n store.
void RelaxTile(LatencyMs* d, std::size_t n, NodeId i0, NodeId i1, NodeId j0,
               NodeId j1, NodeId k0, NodeId k1) {
  for (NodeId k = k0; k < k1; ++k) {
    const LatencyMs* row_k = d + static_cast<std::size_t>(k) * n;
    for (NodeId i = i0; i < i1; ++i) {
      LatencyMs* row_i = d + static_cast<std::size_t>(i) * n;
      const LatencyMs d_ik = row_i[k];
      // Branchless min-store: the compiler turns this into packed
      // vmin + unconditional store, where the conditional-store form
      // defeats vectorization.
      for (NodeId j = j0; j < j1; ++j) {
        const LatencyMs through = d_ik + row_k[j];
        row_i[j] = through < row_i[j] ? through : row_i[j];
      }
    }
  }
}

}  // namespace

LatencyMatrix::LatencyMatrix(NodeId n, LatencyMs fill)
    : n_(n), nn_(static_cast<std::size_t>(n)) {
  NP_ENSURE(n >= 1, "LatencyMatrix requires n >= 1");
  NP_ENSURE(fill >= 0.0, "latency must be non-negative");
  store_.assign(nn_ * nn_, fill);
  for (NodeId i = 0; i < n_; ++i) {
    store_[Index(i, i)] = 0.0;
  }
}

void LatencyMatrix::Row(NodeId from, std::vector<LatencyMs>& out) const {
  CheckNode(from);
  out.resize(nn_);
  const LatencyMs* row = RowPtr(from);
  std::copy(row, row + nn_, out.begin());
}

void LatencyMatrix::Set(NodeId a, NodeId b, LatencyMs value) {
  CheckNode(a);
  CheckNode(b);
  NP_ENSURE(a != b, "cannot set the diagonal");
  NP_ENSURE(value >= 0.0, "latency must be non-negative");
  store_[Index(a, b)] = value;
  store_[Index(b, a)] = value;
}

bool LatencyMatrix::IsValid() const {
  for (NodeId i = 0; i < n_; ++i) {
    const LatencyMs* row = RowPtr(i);
    if (row[i] != 0.0) {
      return false;
    }
    for (NodeId j = 0; j < n_; ++j) {
      const LatencyMs v = row[j];
      if (!(v >= 0.0) || !std::isfinite(v) || v != At(j, i)) {
        return false;
      }
    }
  }
  return true;
}

double LatencyMatrix::MaxTriangleViolation() const {
  double worst = 1.0;
  for (NodeId i = 0; i < n_; ++i) {
    const LatencyMs* row_i = RowPtr(i);
    for (NodeId j = i + 1; j < n_; ++j) {
      const LatencyMs direct = row_i[j];
      if (direct == 0.0) {
        continue;
      }
      const LatencyMs* row_j = RowPtr(j);
      for (NodeId k = 0; k < n_; ++k) {
        if (k == i || k == j) {
          continue;
        }
        const LatencyMs detour = row_i[k] + row_j[k];
        if (detour > 0.0) {
          worst = std::max(worst, direct / detour);
        }
      }
    }
  }
  return worst - 1.0;
}

void LatencyMatrix::MetricRepairSerial() {
  // Classic Floyd-Warshall triple loop over the full square store;
  // symmetric input stays symmetric (the two mirror relaxations add
  // the same IEEE doubles).
  LatencyMs* d = store_.data();
  RelaxTile(d, nn_, 0, n_, 0, n_, 0, n_);
}

void LatencyMatrix::MetricRepair(int num_threads) {
  // Blocked Floyd-Warshall (the standard three-phase schedule, e.g.
  // Venkataraman et al.): for each pivot tile K, (1) relax the
  // diagonal tile (K,K) against itself, (2) relax the pivot row tiles
  // (K,j) and pivot column tiles (i,K), (3) relax every remaining tile
  // (i,j) — phases 2 and 3 are parallel across tiles. Threads only
  // partition independent tiles within a phase, so results are
  // bit-identical for every thread count. The tile schedule itself
  // can associate path sums differently from the serial triple loop,
  // so blocked agrees with serial bitwise only in exact arithmetic
  // (to rounding otherwise); both compute all-pairs shortest paths.
  LatencyMs* d = store_.data();
  const std::size_t n = nn_;
  const NodeId num_tiles = (n_ + kTileSize - 1) / kTileSize;
  const auto tile_lo = [](NodeId t) { return t * kTileSize; };
  const auto tile_hi = [this](NodeId t) {
    return std::min(n_, t * kTileSize + kTileSize);
  };

  for (NodeId kt = 0; kt < num_tiles; ++kt) {
    const NodeId k0 = tile_lo(kt);
    const NodeId k1 = tile_hi(kt);
    // Phase 1: pivot tile against itself.
    RelaxTile(d, n, k0, k1, k0, k1, k0, k1);
    // Phase 2: pivot row and pivot column, parallel over the other
    // tiles. 2 * (num_tiles - 1) independent tile jobs: jobs
    // [0, num_tiles-1) are row tiles (K, j), the rest column (i, K).
    const std::size_t others = static_cast<std::size_t>(num_tiles) - 1;
    util::ParallelFor(0, 2 * others, num_threads, [&](std::size_t job) {
      const bool is_row = job < others;
      NodeId t = static_cast<NodeId>(is_row ? job : job - others);
      if (t >= kt) {
        ++t;  // skip the pivot tile
      }
      if (is_row) {
        RelaxTile(d, n, k0, k1, tile_lo(t), tile_hi(t), k0, k1);
      } else {
        RelaxTile(d, n, tile_lo(t), tile_hi(t), k0, k1, k0, k1);
      }
    });
    // Phase 3: everything else, parallel over row-tile bands.
    util::ParallelFor(0, others, num_threads, [&](std::size_t band) {
      NodeId it = static_cast<NodeId>(band);
      if (it >= kt) {
        ++it;
      }
      const NodeId i0 = tile_lo(it);
      const NodeId i1 = tile_hi(it);
      for (NodeId jt = 0; jt < num_tiles; ++jt) {
        if (jt == kt) {
          continue;
        }
        RelaxTile(d, n, i0, i1, tile_lo(jt), tile_hi(jt), k0, k1);
      }
    });
  }
}

}  // namespace np::matrix
