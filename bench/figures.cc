#include "bench/figures.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "core/experiment.h"
#include "matrix/generators.h"
#include "meridian/meridian.h"
#include "net/tools.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/table.h"

namespace np::bench {
namespace {

/// The key for a printed label: "x(...)" -> "x", "<=" -> "_le", ">=" ->
/// "_ge", "/" -> "_over_", "," -> "_", brackets dropped.
std::string KeyOf(const std::string& label) {
  std::string key;
  for (const char c : label.substr(0, label.find('('))) {
    if (c == '<' || c == '>') {
      key += c == '<' ? "_l" : "_g";  // the '=' that follows adds 'e'
    } else if (c == '=') {
      key += 'e';
    } else if (c == '/' || c == ',') {
      key += c == '/' ? "_over_" : "_";
    } else if (c != '[' && c != ']') {
      key += c;
    }
  }
  return key;
}

/// Accumulates one Figure: its lines, its table, and every printed
/// number under the key prefix fig<k> taken from its name.
class FigureBuilder {
 public:
  FigureBuilder(std::string name, std::string paper,
                std::vector<std::string> columns)
      : key_(name.substr(0, name.find('_'))),
        columns_(columns),
        table_(std::move(columns)) {
    figure_.name = std::move(name);
    figure_.paper = std::move(paper);
  }

  /// Records `value` as <key>_<metric>.
  void Keep(const std::string& metric, double value) {
    const std::string key = key_ + "_" + metric;
    NP_ENSURE(figure_.values.emplace(key, value).second,
              "duplicate figure key: " + key);
  }

  /// "label: value", the value kept under KeyOf(label).
  std::string Print(const std::string& label, double value,
                    int precision = 0) {
    Keep(KeyOf(label), value);
    return label + ": " + util::FormatDouble(value, precision);
  }

  void Line(const std::string& line) { figure_.body += line + "\n"; }

  /// Prints "label: value<suffix>" as one line.
  void Scalar(const std::string& label, double value, int precision = 0,
              const std::string& suffix = "") {
    Line(Print(label, value, precision) + suffix);
  }

  /// Keeps cells[i] as <key>_<row>_<column first_column + i>.
  void KeepRow(const std::string& row, const std::vector<double>& cells,
               std::size_t first_column = 0) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      Keep(row + "_" + KeyOf(columns_.at(first_column + i)), cells[i]);
    }
  }

  /// A kept table row of numbers printed at `precision`.
  void Row(const std::string& row, const std::vector<double>& cells,
           int precision) {
    KeepRow(row, cells);
    table_.AddNumericRow(cells, precision);
  }

  util::Table& table() { return table_; }

  void PrintTable() {
    figure_.body += table_.Render();
    figure_.rows = static_cast<int>(table_.row_count());
  }

  /// The figure, after a "note:" line unless `note` is empty.
  Figure Finish(const std::string& note = "") {
    if (!note.empty()) {
      Line("note: " + note);
    }
    return std::move(figure_);
  }

 private:
  Figure figure_;
  std::string key_;
  std::vector<std::string> columns_;
  util::Table table_;
};

/// Figs 4 and 10: one row per populated bin, keyed bin<i>.
void BinRows(FigureBuilder& fig, const util::BinnedScatter& scatter,
             int precision) {
  int index = 0;
  for (const auto& bin : scatter.Bins()) {
    fig.Row("bin" + std::to_string(index++),
            {bin.x_representative, static_cast<double>(bin.count), bin.p5,
             bin.p25, bin.median, bin.p75, bin.p95},
            precision);
  }
}

constexpr int kSeeds = 3;

/// One §4 sweep point, median [min, max] over kSeeds runs.
struct PointRuns {
  util::RunSpread exact;
  util::RunSpread cluster;
  util::RunSpread wrong_hub;
  double mean_probes = 0.0;
};

/// Meridian (paper defaults: beta = 0.5, 16 per ring) on kSeeds worlds,
/// 100 peers held out as targets; seeds are seed * mul + add.
PointRuns RunPoint(const matrix::ClusteredConfig& config,
                   std::uint64_t world_mul, std::uint64_t world_add,
                   std::uint64_t run_mul, std::uint64_t run_add,
                   bool quick) {
  std::vector<double> exact, cluster, wrong_hub;
  double probes = 0.0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    util::Rng world_rng(seed * world_mul + world_add);
    const auto world = matrix::GenerateClustered(config, world_rng);
    meridian::MeridianOverlay meridian{meridian::MeridianConfig{}};
    core::ExperimentConfig run;
    run.overlay_size = world.layout.peer_count() - 100;
    run.num_queries = quick ? 500 : 5000;
    util::Rng run_rng(seed * run_mul + run_add);
    const auto m = core::RunClusteredExperiment(world, meridian, run, run_rng);
    exact.push_back(m.p_exact_closest);
    cluster.push_back(m.p_correct_cluster);
    wrong_hub.push_back(m.median_wrong_hub_latency_ms);
    probes += m.mean_probes;
  }
  return {util::RunSpread::Of(exact), util::RunSpread::Of(cluster),
          util::RunSpread::Of(wrong_hub), probes / kSeeds};
}

}  // namespace

DnsStudy BuildDnsStudy(bool quick) {
  net::TopologyConfig config = net::DnsStudyConfig();
  if (quick) {
    config.dns_recursive_hosts = 2000;
  }
  util::Rng world_rng(1);
  auto topology = net::Topology::Generate(config, world_rng);
  net::Tools tools(topology, util::Rng(2));
  util::Rng study_rng(3);
  auto result = measure::RunDnsStudy(topology, tools, study_rng);
  return {std::move(topology), std::move(result)};
}

AzureusStudy BuildAzureusStudy(bool quick) {
  net::TopologyConfig config = net::AzureusStudyConfig();
  if (quick) {
    config.azureus_hosts = 15000;
  }
  util::Rng world_rng(1);
  auto topology = net::Topology::Generate(config, world_rng);
  // Each study probes through its own Tools, seeded alike.
  net::Tools study_tools(topology, util::Rng(2));
  auto clusters = measure::RunAzureusStudy(topology, study_tools);
  net::Tools graph_tools(topology, util::Rng(2));
  auto graph = measure::PathGraph::Build(
      topology, graph_tools,
      topology.HostsOfKind(net::HostKind::kAzureusPeer));
  auto close_sets = measure::ComputeCloseSets(graph);
  return {std::move(topology), std::move(clusters), std::move(graph),
          std::move(close_sets)};
}

Figure Fig3(const DnsStudy& study) {
  FigureBuilder fig(
      "fig3_prediction_cdf",
      "CDF of predicted/measured latency over ~18k DNS-server pairs; "
      "about 65% of pairs fall within [0.5, 2].",
      {"ratio", "cumulative_pairs", "cumulative_frac"});
  const auto& result = study.result;
  const auto ratios = result.IncludedRatios();
  fig.Scalar("servers_traced", result.num_servers_traced);
  fig.Scalar("clusters", result.num_clusters);
  fig.Scalar("pairs_evaluated", result.pairs.size());
  fig.Scalar("pairs_included", ratios.size());
  const util::Cdf cdf{ratios};
  for (const double x : {0.25, 0.5, 0.7, 1.0, 1.4, 2.0, 2.8, 4.0, 8.0}) {
    fig.Row("le" + util::FormatDouble(x, 2),
            {x, static_cast<double>(cdf.CountAtOrBelow(x)),
             cdf.FractionAtOrBelow(x)},
            3);
  }
  fig.PrintTable();
  fig.Scalar("fraction_within_[0.5,2]", result.FractionWithin(0.5, 2.0), 3,
             " (paper: ~0.65)");
  return fig.Finish(
      "ratio < 1 at small latencies (King lag inflates "
      "measurements); ratio > 1 at large (alternate paths shorten them).");
}

Figure Fig4(const DnsStudy& study) {
  FigureBuilder fig(
      "fig4_prediction_vs_latency",
      "Binned percentiles (5/25/50/75/95) of predicted/measured vs "
      "predicted latency; the median trends upward with predicted "
      "latency.",
      {"predicted_ms", "pairs", "p5", "p25", "median", "p75", "p95"});
  BinRows(fig, study.result.RatioVsPredicted(/*bins=*/12), 3);
  fig.PrintTable();
  return fig.Finish(
      "x = predicted latency (sum of ping legs to the common "
      "router), log-binned as in the paper's plot.");
}

Figure Fig5(const DnsStudy& study) {
  FigureBuilder fig(
      "fig5_intra_inter_domain",
      "Intra-domain latencies ~an order of magnitude below "
      "inter-domain; hop-cap 5 vs 10 changes intra-domain only "
      "modestly; inter-domain predicted matches measured.",
      {"series", "pairs", "p5_ms", "p25_ms", "median_ms", "p75_ms",
       "p95_ms"});
  const auto row = [&fig](std::string series, const std::vector<double>& v) {
    if (v.empty()) {
      return;
    }
    const auto s = util::Summary::Of(v);
    const std::vector<double> cells{static_cast<double>(s.count), s.p5,
                                    s.p25, s.median, s.p75, s.p95};
    std::vector<std::string> printed{series, std::to_string(s.count)};
    for (std::size_t i = 1; i < cells.size(); ++i) {
      printed.push_back(util::FormatDouble(cells[i], 3));
    }
    fig.table().AddRow(std::move(printed));
    series.replace(series.find('('), 1, "_").pop_back();  // x(y) -> x_y
    fig.KeepRow(series, cells, /*first_column=*/1);
  };
  const auto intra = study.result.IntraDomainLatencies(10);
  const auto inter = study.result.InterDomainMeasured();
  const auto predicted = study.result.InterDomainPredicted();
  row("samedomain_max5hops(predicted)", study.result.IntraDomainLatencies(5));
  row("samedomain_max10hops(predicted)", intra);
  row("difdomain_max10hops(predicted)", predicted);
  row("difdomain_max10hops(king)", inter);
  fig.PrintTable();
  if (!intra.empty() && !inter.empty()) {
    const double gap = util::Percentile(inter, 50.0) /
                       std::max(util::Percentile(intra, 50.0), 1e-9);
    fig.Scalar("median_gap_inter/intra", gap, 2, "x (paper: ~10x)");
  }
  // KS distance between the inter-domain predicted and measured CDFs.
  fig.Scalar("ks_distance_predicted_vs_measured",
             util::KolmogorovSmirnov(predicted, inter), 3);
  return fig.Finish(
      "intra-domain pairs use predicted latencies — King's "
      "recursion is never forwarded between same-domain servers.");
}

Figure Fig6(const AzureusStudy& study) {
  FigureBuilder fig(
      "fig6_cluster_sizes",
      "Cumulative count of peers vs cluster size (unpruned and "
      "pruned); ~16% of peers in pruned clusters of size >= 25; "
      "largest clusters have hundreds of members.",
      {"cluster_size<=", "cum_peers_unpruned", "cum_peers_pruned"});
  const auto& result = study.clusters;
  fig.Scalar("total_ips", result.total_ips);
  fig.Scalar("responsive", result.responsive);
  fig.Scalar("unique_upstream(clustered)", result.unique_upstream, 0,
             " (paper: 5904 of 156k)");
  const auto count_at_most = [](const std::vector<int>& sizes, int s) {
    return std::accumulate(
        sizes.begin(), sizes.end(), 0.0,
        [s](double n, int size) { return n + (size <= s ? size : 0); });
  };
  const auto unpruned = result.UnprunedSizes();
  const auto pruned = result.PrunedSizes();
  for (const int s : {1, 2, 5, 10, 25, 50, 100, 200, 1000}) {
    fig.Row("le" + std::to_string(s),
            {static_cast<double>(s), count_at_most(unpruned, s),
             count_at_most(pruned, s)},
            0);
  }
  fig.PrintTable();
  const std::string largest =
      fig.Print("largest_unpruned", unpruned.empty() ? 0 : unpruned[0]);
  fig.Line(largest + ", " +
           fig.Print("largest_pruned", pruned.empty() ? 0 : pruned[0]));
  fig.Scalar("frac_peers_in_pruned_clusters>=25",
             result.FractionInPrunedClustersAtLeast(25), 3,
             " (paper: ~0.16)");
  fig.Scalar("frac_peers_in_pruned_clusters>=10",
             result.FractionInPrunedClustersAtLeast(10), 3);
  return fig.Finish();
}

Figure Fig7(const AzureusStudy& study) {
  FigureBuilder fig(
      "fig7_intra_cluster_latency",
      "Hub-to-peer latency distribution for the 5 largest pruned "
      "clusters; most mass between ~5 and ~100 ms.",
      {"cluster_rank", "pruned_size", "min_ms", "p25_ms", "median_ms",
       "p75_ms", "max_ms", "max/min_ratio"});
  int rank = 0;
  for (const auto* cluster : study.clusters.LargestPruned(5)) {
    if (cluster->pruned_latencies.empty()) {
      continue;
    }
    const auto s = util::Summary::Of(cluster->pruned_latencies);
    ++rank;
    fig.Row("rank" + std::to_string(rank),
            {static_cast<double>(rank),
             static_cast<double>(cluster->pruned_peers.size()), s.min, s.p25,
             s.median, s.p75, s.max, s.max / std::max(s.min, 1e-9)},
            2);
  }
  fig.PrintTable();
  return fig.Finish(
      "max/min <= 1.5 by construction of the pruning step; similar "
      "hub latencies across many end-networks = the clustering "
      "condition (paper cluster sizes: 235/139/113/79/73).");
}

// The generator's defaults are the paper's: delta = 0.2, 2 peers per net.
Figure Fig8(bool quick) {
  FigureBuilder fig(
      "fig8_meridian_cluster_size",
      "P(correct closest peer) peaks near 25 end-networks/cluster then "
      "falls (0.55 -> ~0.1 at 250); P(correct cluster) rises "
      "monotonically toward 1.0. ~2.4K overlay, beta=0.5, delta=0.2, 2 "
      "peers/end-network, 5000 queries, 3 runs (median [min, max]).",
      {"nets_per_cluster", "clusters", "p_exact_med", "p_exact_min",
       "p_exact_max", "p_cluster_med", "p_cluster_min", "p_cluster_max",
       "mean_probes"});
  const int total_nets = quick ? 500 : 1250;
  for (const int nets : {5, 25, 50, 125, 250}) {
    matrix::ClusteredConfig config;
    config.nets_per_cluster = nets;
    config.num_clusters = total_nets / nets;
    const PointRuns r = RunPoint(config, 1000, nets, 77, 5, quick);
    fig.Row("nets" + std::to_string(nets),
            {static_cast<double>(nets), static_cast<double>(total_nets / nets),
             r.exact.median, r.exact.min, r.exact.max, r.cluster.median,
             r.cluster.min, r.cluster.max, r.mean_probes},
            3);
  }
  fig.PrintTable();
  return fig.Finish(
      "exact-closest = returned peer ties the true closest overlay "
      "member; correct-cluster = returned peer shares the target's "
      "cluster.");
}

Figure Fig9(bool quick) {
  FigureBuilder fig(
      "fig9_meridian_delta",
      "P(correct closest) rises from ~0.05 at delta=0 to ~0.4 at "
      "delta=1; median latency from the found (wrong) peer to its "
      "cluster-hub falls from ~5 ms toward ~1.5-2 ms. 125 "
      "end-networks/cluster, beta=0.5, 3 runs (median [min, max]).",
      {"delta", "p_exact_med", "p_exact_min", "p_exact_max",
       "wrong_hub_latency_med_ms", "mean_probes"});
  for (const double delta : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    matrix::ClusteredConfig config;
    config.nets_per_cluster = quick ? 100 : 125;
    config.num_clusters = quick ? 5 : 10;
    config.delta = delta;
    const auto world_add = static_cast<std::uint64_t>(delta * 100);
    const PointRuns r = RunPoint(config, 991, world_add, 13, 3, quick);
    fig.Row("delta" + util::FormatDouble(delta, 1),
            {delta, r.exact.median, r.exact.min, r.exact.max,
             r.wrong_hub.median, r.mean_probes},
            3);
  }
  fig.PrintTable();
  return fig.Finish(
      "wrong_hub_latency = median latency from the found peer's "
      "end-network to its cluster-hub over queries that missed the "
      "exact closest (paper Fig 9 right axis).");
}

Figure Fig10(const AzureusStudy& study) {
  FigureBuilder fig(
      "fig10_ucl_hops",
      "Binned percentiles of router hop-length vs inter-peer latency "
      "for pairs < 10 ms; median grows with latency (~4 hops at ~4 "
      "ms). Track half the hop-length in upstream routers to discover "
      "the pair.",
      {"latency_ms", "pairs", "hops_p5", "hops_p25", "hops_median",
       "hops_p75", "hops_p95"});
  const auto& graph = study.graph;
  fig.Scalar("peers_in_graph", graph.peers().size(), 0,
             " (paper: 22796 of 156k)");
  const std::string nodes = fig.Print("graph_nodes", graph.node_count());
  fig.Line(nodes + ", " + fig.Print("graph_edges", graph.edge_count()));
  BinRows(fig, measure::HopLengthVsLatency(study.close_sets), 2);
  fig.PrintTable();
  return fig.Finish(
      "hop counts come from Dijkstra paths over the "
      "traceroute-derived graph, as in the paper; pairs <10 ms only.");
}

Figure Fig11(const AzureusStudy& study) {
  FigureBuilder fig(
      "fig11_prefix_rates",
      "Median FP rate falls and median FN rate rises with prefix "
      "length; curves cross with no sweet spot.",
      {"prefix_bits", "median_fp_rate", "median_fn_rate",
       "mean_candidates"});
  fig.Scalar("population(peers with a <10ms neighbor)",
             study.close_sets.PopulationSize(), 0, " (paper: ~2400)");
  for (const auto& r : measure::EvaluatePrefixHeuristic(
           study.topology, study.close_sets, 8, 24)) {
    fig.Row("bits" + std::to_string(r.prefix_bits),
            {static_cast<double>(r.prefix_bits), r.median_false_positive,
             r.median_false_negative, r.mean_candidates},
            3);
  }
  fig.PrintTable();
  return fig.Finish(
      "mean_candidates = same-prefix peers a joiner would have to "
      "probe (the paper: >= ~250 at 14 bits or shorter).");
}

}  // namespace np::bench
