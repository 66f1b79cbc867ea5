#include "matrix/latency_matrix.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace np::matrix {
namespace {

/// Random symmetric matrix with triangle violations. Values are
/// multiples of 0.125, so every shortest-path sum Floyd-Warshall can
/// form is exact in double precision and repaired matrices can be
/// compared bitwise across schedules.
LatencyMatrix RandomGridMatrix(NodeId n, std::uint64_t seed) {
  LatencyMatrix m(n);
  util::Rng rng(seed);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      m.Set(i, j, 0.125 * static_cast<double>(rng.UniformInt(1, 2000)));
    }
  }
  return m;
}

/// Random symmetric matrix with continuous values (the realistic case).
LatencyMatrix RandomContinuousMatrix(NodeId n, std::uint64_t seed) {
  LatencyMatrix m(n);
  util::Rng rng(seed);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      m.Set(i, j, rng.Uniform(0.1, 250.0));
    }
  }
  return m;
}

TEST(LatencyMatrix, DiagonalIsZero) {
  LatencyMatrix m(4, 1.0);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(m.At(i, i), 0.0);
  }
}

TEST(LatencyMatrix, SetIsSymmetric) {
  LatencyMatrix m(5);
  m.Set(1, 3, 12.5);
  EXPECT_DOUBLE_EQ(m.At(1, 3), 12.5);
  EXPECT_DOUBLE_EQ(m.At(3, 1), 12.5);
}

TEST(LatencyMatrix, FillValueAppliesOffDiagonal) {
  LatencyMatrix m(3, 9.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 9.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 9.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 9.0);
}

TEST(LatencyMatrix, InvalidAccessThrows) {
  LatencyMatrix m(3);
#ifndef NDEBUG
  // At() bounds checks are NP_DCHECK (hot path): active in debug
  // builds only. Mutators below keep full checks in every build type.
  EXPECT_THROW(m.At(-1, 0), util::Error);
  EXPECT_THROW(m.At(0, 3), util::Error);
#endif
  EXPECT_THROW(m.Set(-1, 0, 1.0), util::Error);
  EXPECT_THROW(m.Set(0, 3, 1.0), util::Error);
  EXPECT_THROW(m.Set(0, 0, 1.0), util::Error);
  EXPECT_THROW(m.Set(0, 1, -1.0), util::Error);
  EXPECT_THROW(LatencyMatrix(0), util::Error);
}

TEST(LatencyMatrix, SingleNodeMatrixIsValid) {
  LatencyMatrix m(1);
  EXPECT_EQ(m.size(), 1);
  EXPECT_TRUE(m.IsValid());
}

TEST(LatencyMatrix, ValidityDetectsInfinities) {
  LatencyMatrix m(3, 1.0);
  EXPECT_TRUE(m.IsValid());
  m.Set(0, 1, kInfiniteLatency);
  EXPECT_FALSE(m.IsValid());
}

TEST(LatencyMatrix, TriangleViolationZeroForMetric) {
  // A path metric: points on a line at 0, 1, 3.
  LatencyMatrix m(3);
  m.Set(0, 1, 1.0);
  m.Set(1, 2, 2.0);
  m.Set(0, 2, 3.0);
  EXPECT_NEAR(m.MaxTriangleViolation(), 0.0, 1e-12);
}

TEST(LatencyMatrix, TriangleViolationDetected) {
  LatencyMatrix m(3);
  m.Set(0, 1, 1.0);
  m.Set(1, 2, 1.0);
  m.Set(0, 2, 4.0);  // violates: direct 4 > 1 + 1
  EXPECT_NEAR(m.MaxTriangleViolation(), 1.0, 1e-12);
}

TEST(LatencyMatrix, MetricRepairShortensViolatingEdges) {
  LatencyMatrix m(3);
  m.Set(0, 1, 1.0);
  m.Set(1, 2, 1.0);
  m.Set(0, 2, 4.0);
  m.MetricRepair();
  EXPECT_DOUBLE_EQ(m.At(0, 2), 2.0);
  EXPECT_NEAR(m.MaxTriangleViolation(), 0.0, 1e-12);
}

TEST(LatencyMatrix, MetricRepairPreservesMetricMatrices) {
  LatencyMatrix m(4);
  m.Set(0, 1, 1.0);
  m.Set(0, 2, 2.0);
  m.Set(0, 3, 3.0);
  m.Set(1, 2, 1.5);
  m.Set(1, 3, 2.5);
  m.Set(2, 3, 1.2);
  const LatencyMatrix before = m;
  m.MetricRepair();
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(m.At(i, j), before.At(i, j));
    }
  }
}

TEST(LatencyMatrix, LargeMatrixMirrorWritesConsistent) {
  const NodeId n = 200;
  LatencyMatrix m(n);
  // Give every pair a unique value and read the mirror entry back.
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      m.Set(i, j, static_cast<double>(i) * 1000.0 + j);
    }
  }
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      EXPECT_DOUBLE_EQ(m.At(j, i), static_cast<double>(i) * 1000.0 + j);
    }
  }
}

TEST(LatencyMatrix, RowMatchesAt) {
  LatencyMatrix m = RandomContinuousMatrix(17, 7);
  std::vector<LatencyMs> row;
  for (NodeId i = 0; i < m.size(); ++i) {
    m.Row(i, row);
    ASSERT_EQ(row.size(), 17u);
    const LatencyMs* ptr = m.RowPtr(i);
    for (NodeId j = 0; j < m.size(); ++j) {
      EXPECT_EQ(row[static_cast<std::size_t>(j)], m.At(i, j));
      EXPECT_EQ(ptr[j], m.At(i, j));
    }
  }
}

// Matrix size that spans >= 3 of the repair's 128-wide tiles, so every
// phase of the blocked schedule (diagonal, panels, interior — with
// multiple non-pivot tiles) is exercised. Keep this above 2x the tile
// edge if the tile size is ever retuned.
constexpr NodeId kMultiTileN = 300;

TEST(LatencyMatrix, MetricRepairBlockedMatchesSerialBitwise) {
  // Grid values make all path sums exact, so blocked and serial must
  // agree bitwise (with continuous values the tile schedule may
  // associate sums differently — see the class comment).
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    LatencyMatrix serial = RandomGridMatrix(kMultiTileN, seed);
    LatencyMatrix blocked = serial;
    serial.MetricRepairSerial();
    for (const int threads : {1, 2, 8}) {
      LatencyMatrix repaired = blocked;
      repaired.MetricRepair(threads);
      for (NodeId i = 0; i < serial.size(); ++i) {
        for (NodeId j = 0; j < serial.size(); ++j) {
          ASSERT_EQ(repaired.At(i, j), serial.At(i, j))
              << "seed " << seed << " threads " << threads << " at (" << i
              << ", " << j << ")";
        }
      }
    }
  }
}

TEST(LatencyMatrix, MetricRepairThreadCountInvariantOnContinuousValues) {
  // With continuous values the blocked schedule is still bit-identical
  // across thread counts (parallelism only distributes independent
  // tiles), and stays within rounding of the serial reference.
  const LatencyMatrix base = RandomContinuousMatrix(kMultiTileN, 17);
  LatencyMatrix serial = base;
  serial.MetricRepairSerial();
  LatencyMatrix one = base;
  one.MetricRepair(1);
  for (const int threads : {2, 8}) {
    LatencyMatrix repaired = base;
    repaired.MetricRepair(threads);
    for (NodeId i = 0; i < base.size(); ++i) {
      for (NodeId j = 0; j < base.size(); ++j) {
        ASSERT_EQ(repaired.At(i, j), one.At(i, j))
            << "threads " << threads << " at (" << i << ", " << j << ")";
      }
    }
  }
  for (NodeId i = 0; i < base.size(); ++i) {
    for (NodeId j = 0; j < base.size(); ++j) {
      ASSERT_NEAR(one.At(i, j), serial.At(i, j), 1e-9 * serial.At(i, j) + 1e-12);
    }
  }
}

TEST(LatencyMatrix, MetricRepairYieldsMetric) {
  // Grid values keep every Floyd-Warshall sum exact, so the repaired
  // matrix is a metric with *zero* residual violation — the regression
  // guard for the metric property.
  LatencyMatrix grid = RandomGridMatrix(96, 23);
  grid.MetricRepair();
  EXPECT_TRUE(grid.IsValid());
  EXPECT_EQ(grid.MaxTriangleViolation(), 0.0);

  // Continuous values: violations bounded by rounding only.
  LatencyMatrix cont = RandomContinuousMatrix(96, 29);
  cont.MetricRepair();
  EXPECT_TRUE(cont.IsValid());
  EXPECT_NEAR(cont.MaxTriangleViolation(), 0.0, 1e-12);
}

}  // namespace
}  // namespace np::matrix
