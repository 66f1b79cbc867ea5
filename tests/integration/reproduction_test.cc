// Integration tests: every paper figure's shape, asserted end-to-end
// across modules (topology -> tools -> studies, matrix -> meridian ->
// runner) on the figure definitions `paper_figures` prints
// (bench/figures.h), run at quick scale. Each study family is built
// once per process by a suite-level fixture; Figs 8 and 9 stay separate
// tests so `ctest -j` runs them in parallel.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "bench/figures.h"

namespace np {
namespace {

using bench::Figure;

constexpr bool kQuick = true;

/// The figure's value under `key`; a missing key fails the test.
double Value(const Figure& fig, const std::string& key) {
  const auto it = fig.values.find(key);
  EXPECT_TRUE(it != fig.values.end()) << "no " << key << " in " << fig.name;
  return it == fig.values.end() ? std::nan("") : it->second;
}

/// The value in table row `row`, column `column` (key fig<k>_row_column).
double Cell(const Figure& fig, const std::string& row,
            const std::string& column) {
  const std::string prefix = fig.name.substr(0, fig.name.find('_'));
  return Value(fig, prefix + "_" + row + "_" + column);
}

// ---------------------------------------------------------------------------
// Figs 3-5 (DNS prediction study): one study shared by the three suites.

struct DnsFigures {
  Figure fig3, fig4, fig5;
};

class DnsFamily : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (figures_ == nullptr) {
      const auto study = bench::BuildDnsStudy(kQuick);
      figures_ = std::make_unique<const DnsFigures>(DnsFigures{
          bench::Fig3(study), bench::Fig4(study), bench::Fig5(study)});
    }
  }

  static const DnsFigures& figures() { return *figures_; }

 private:
  static inline std::unique_ptr<const DnsFigures> figures_;
};

using ReproFig3 = DnsFamily;
using ReproFig4 = DnsFamily;
using ReproFig5 = DnsFamily;

TEST_F(ReproFig3, MajorityOfPredictionsWithinFactorTwo) {
  const Figure& fig = figures().fig3;
  ASSERT_GT(Value(fig, "fig3_pairs_included"), 1000);
  const double frac = Value(fig, "fig3_fraction_within_0.5_2");
  // Paper: ~0.65. Shape requirement: a clear majority, but with
  // substantial outliers on both sides.
  EXPECT_GT(frac, 0.55);
  EXPECT_LT(frac, 0.95);
}

TEST_F(ReproFig4, RatioRisesWithPredictedLatency) {
  const Figure& fig = figures().fig4;
  ASSERT_GE(fig.rows, 4);
  const double first = Cell(fig, "bin0", "median");
  const double last =
      Cell(fig, "bin" + std::to_string(fig.rows - 1), "median");
  // First populated bin's median below the last's.
  EXPECT_LT(first, last);
  // Low-latency medians below 1 (lag inflates measurements).
  EXPECT_LT(first, 1.0);
}

TEST_F(ReproFig5, IntraDomainOrderOfMagnitudeBelowInterDomain) {
  const Figure& fig = figures().fig5;
  const std::string intra = "samedomain_max10hops_predicted";
  const std::string inter = "difdomain_max10hops_king";
  ASSERT_GT(Cell(fig, intra, "pairs"), 10);
  ASSERT_GT(Cell(fig, inter, "pairs"), 500);
  const double inter_median = Cell(fig, inter, "median_ms");
  EXPECT_LT(Cell(fig, intra, "median_ms") * 4.0, inter_median);
  // Predicted inter-domain tracks measured within a factor ~2.
  const double predicted_median =
      Cell(fig, "difdomain_max10hops_predicted", "median_ms");
  EXPECT_LT(predicted_median, 2.0 * inter_median);
  EXPECT_GT(predicted_median, 0.4 * inter_median);
}

// ---------------------------------------------------------------------------
// Figs 6-7 (Azureus clustering) and 10-11 (the §5 evaluation): one
// topology, clustering study and path graph shared by three suites.

struct AzureusFigures {
  Figure fig6, fig7, fig10, fig11;
};

class AzureusFamily : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (figures_ == nullptr) {
      const auto study = bench::BuildAzureusStudy(kQuick);
      figures_ = std::make_unique<const AzureusFigures>(
          AzureusFigures{bench::Fig6(study), bench::Fig7(study),
                         bench::Fig10(study), bench::Fig11(study)});
    }
  }

  static const AzureusFigures& figures() { return *figures_; }

 private:
  static inline std::unique_ptr<const AzureusFigures> figures_;
};

using ReproFig6 = AzureusFamily;
using ReproFig7 = AzureusFamily;
using ReproFig10And11 = AzureusFamily;

TEST_F(ReproFig6, FiltersAndClusterTail) {
  const Figure& fig = figures().fig6;
  const auto count = [&fig](const std::string& key) {
    return static_cast<int>(Value(fig, "fig6_" + key));
  };
  // The pipeline's funnel: responsive < total; unique-upstream <
  // responsive (vantage disagreement drops most).
  EXPECT_LT(count("responsive"), count("total_ips") / 2);
  EXPECT_LT(count("unique_upstream"), count("responsive"));
  EXPECT_GT(count("unique_upstream"), count("total_ips") / 100);
  // A heavy tail exists: some pruned cluster with >= 15 members, and a
  // nontrivial fraction of peers in pruned clusters >= 10.
  ASSERT_GT(count("largest_pruned"), 0);  // some pruned cluster at all
  EXPECT_GE(count("largest_pruned"), 15);
  EXPECT_GT(Value(fig, "fig6_frac_peers_in_pruned_clusters_ge10"), 0.05);
}

TEST_F(ReproFig7, LargestClustersHaveSimilarHubLatencies) {
  const Figure& fig = figures().fig7;
  int checked = 0;
  for (int rank = 1; rank <= fig.rows; ++rank) {
    const std::string row = "rank" + std::to_string(rank);
    if (Cell(fig, row, "pruned_size") < 5) {
      continue;
    }
    EXPECT_LE(Cell(fig, row, "max_ms"),
              1.5 * Cell(fig, row, "min_ms") + 1e-9);
    // Hub latencies at access-network scale (several ms+), i.e. the
    // members sit in different end-networks: the clustering condition.
    EXPECT_GT(Cell(fig, row, "median_ms"), 1.0);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(ReproFig10And11, HeuristicShapes) {
  const Figure& fig10 = figures().fig10;
  const Figure& fig11 = figures().fig11;
  ASSERT_GT(Value(fig11, "fig11_population"), 100);

  // Fig 10: hop-length grows with latency.
  ASSERT_GE(fig10.rows, 3);
  const std::string last = "bin" + std::to_string(fig10.rows - 1);
  EXPECT_LT(Cell(fig10, "bin0", "hops_median"),
            Cell(fig10, last, "hops_median") + 1e-9);
  // Close pairs (< 5 ms) are discoverable by tracking a handful of
  // routers: median hop-length there stays small.
  for (int bin = 0; bin < fig10.rows; ++bin) {
    const std::string row = "bin" + std::to_string(bin);
    if (Cell(fig10, row, "latency_ms") < 5.0) {
      EXPECT_LE(Cell(fig10, row, "hops_median"), 6.0);
    }
  }

  // Fig 11: FP falls, FN rises, both strictly ordered at the ends.
  ASSERT_EQ(fig11.rows, 17);
  EXPECT_GT(Cell(fig11, "bits8", "median_fp_rate"),
            Cell(fig11, "bits24", "median_fp_rate"));
  EXPECT_LT(Cell(fig11, "bits8", "median_fn_rate"),
            Cell(fig11, "bits24", "median_fn_rate"));
  EXPECT_GT(Cell(fig11, "bits24", "median_fn_rate"), 0.5);
  // Probing cost at short prefixes is prohibitive (paper: >= ~250).
  EXPECT_GT(Cell(fig11, "bits8", "mean_candidates"), 100.0);
}

// ---------------------------------------------------------------------------
// Figs 8-9 (Meridian under clustering): each builds its own worlds.

TEST(ReproFig8, PhaseTransitionInClusterSize) {
  const Figure fig = bench::Fig8(kQuick);
  const auto exact = [&fig](int nets) {
    return Cell(fig, "nets" + std::to_string(nets), "p_exact_med");
  };
  const auto cluster = [&fig](int nets) {
    return Cell(fig, "nets" + std::to_string(nets), "p_cluster_med");
  };
  // Non-monotone exact-closest: peak in the middle.
  EXPECT_GT(exact(25), exact(5));
  EXPECT_GT(exact(25), exact(250));
  // Monotone correct-cluster.
  EXPECT_LE(cluster(5), cluster(25) + 0.05);
  EXPECT_LE(cluster(25), cluster(250) + 0.05);
}

TEST(ReproFig9, DeltaWeakensTheCondition) {
  const Figure fig = bench::Fig9(kQuick);
  EXPECT_GT(Cell(fig, "delta1.0", "p_exact_med"),
            Cell(fig, "delta0.0", "p_exact_med") + 0.05);
  EXPECT_LT(Cell(fig, "delta1.0", "wrong_hub_latency_med_ms"),
            Cell(fig, "delta0.0", "wrong_hub_latency_med_ms"));
}

}  // namespace
}  // namespace np
