// ablation_static: the §4 static runners over one table of ablation
// groups, each a clustered world (the Figs 8-9 setup) plus a 3-D
// Euclidean control of the same peer count: Meridian's beta gate
// (`beta`), ring size x member-selection policy (`ring`; §2.3 predicts
// the diversity policies tie under clustering), converged vs gossiped
// rings (`gossip`), and every latency-only scheme of §2.3/§6, PIC's
// greedy walk (`coord-pic`) among them, under 2% + 0.5 ms probe noise
// (`schemes`). Under clustering no variant but the brute-force oracle
// finds the exact closest peer in more than 35% of queries. On the
// control most variants find it in more than half (Meridian at beta
// >= 0.4, with 16- or 32-member rings or >= 12 gossip rounds;
// karger-ruhl; coord-pic). Tapestry, tiers and beaconing miss there
// too (p_exact 0.02, 0.19, 0.46), as do the starved settings (beta
// 0.25, 4- and 8-member rings, 2 and 6 gossip rounds).
// Derived keys <group>_<variant>_<column> are CI-gated against
// bench/baselines/BENCH_ablation_static_quick.json.
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algos/registry.h"
#include "bench/common.h"
#include "bench/reporter.h"
#include "core/experiment.h"
#include "matrix/generators.h"
#include "meridian/meridian.h"

#include "util/contract.h"

namespace {

using np::NodeId;
using np::algos::AlgorithmPtr;
using np::meridian::MeridianConfig;
using np::meridian::RingSelectionPolicy;

struct Variant {
  std::string label;
  std::function<AlgorithmPtr()> make;
};

Variant Meridian(std::string label, const MeridianConfig& config) {
  const auto make = [config]() -> AlgorithmPtr {
    return std::make_unique<np::meridian::MeridianOverlay>(config);
  };
  return {std::move(label), make};
}

std::vector<Variant> BetaVariants() {
  std::vector<Variant> variants;
  for (const double beta : {0.25, 0.4, 0.5, 0.65, 0.8, 0.9}) {
    std::ostringstream label;
    label << beta;
    variants.push_back(Meridian(label.str(), MeridianConfig{.beta = beta}));
  }
  return variants;
}

std::vector<Variant> RingVariants() {
  const std::pair<const char*, RingSelectionPolicy> policies[] = {
      {"random", RingSelectionPolicy::kRandom},
      {"sumdist", RingSelectionPolicy::kSumDistance},
      {"maxmin", RingSelectionPolicy::kMaxMin},
  };
  std::vector<Variant> variants;
  for (const int size : {4, 8, 16, 32}) {
    for (const auto& [name, policy] : policies) {
      const std::string label = "size" + std::to_string(size) + "-" + name;
      const MeridianConfig config{.ring_size = size, .selection = policy};
      variants.push_back(Meridian(label, config));
    }
  }
  return variants;
}

std::vector<Variant> GossipVariants() {
  std::vector<Variant> variants{Meridian("full-knowledge", MeridianConfig{})};
  for (const int rounds : {2, 6, 12, 24, 48}) {
    const MeridianConfig config{.full_knowledge = false,
                                .gossip_rounds = rounds};
    variants.push_back(Meridian("gossip-" + std::to_string(rounds), config));
  }
  return variants;
}

std::vector<Variant> SchemeVariants() {
  std::vector<Variant> variants;
  for (const char* name : {"oracle", "random", "meridian", "karger-ruhl",
                           "tapestry", "tiers", "beaconing", "coord-pic"}) {
    const auto make = [name] { return np::algos::MakeAlgorithm(name); };
    variants.push_back({name, make});
  }
  return variants;
}

/// One ablation group, its fields in kGroups' column order. The
/// Euclidean control has the clustered world's peer count, and
/// `holdout` peers stay out of the overlay as query targets.
struct Group {
  const char* name;
  int nets_per_cluster;
  int clusters_quick;
  int clusters_full;
  std::uint64_t clustered_seed;
  std::uint64_t euclid_seed;
  NodeId holdout;
  int queries_quick;
  int queries_full;
  std::uint64_t clustered_runner_seed;
  std::uint64_t euclid_runner_seed;
  double noise_frac;
  double noise_floor_ms;
  std::vector<Variant> (*variants)();
};

const Group kGroups[] = {
    {"beta", 125, 10, 10, 11, 12, 100, 300, 2000, 21, 22, 0.0, 0.0,
     &BetaVariants},
    {"ring", 125, 10, 10, 31, 32, 100, 300, 1500, 41, 42, 0.0, 0.0,
     &RingVariants},
    {"gossip", 60, 5, 10, 2, 1, 60, 200, 1000, 12, 11, 0.0, 0.0,
     &GossipVariants},
    {"schemes", 125, 10, 10, 51, 52, 100, 300, 1500, 61, 62, 0.02, 0.5,
     &SchemeVariants},
};

}  // namespace

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "ablation_static",
      "Not a paper figure (§2.3, §7). Under clustering no Meridian beta, "
      "ring size, selection policy or gossip budget, and no other "
      "latency-only scheme, finds the exact closest peer reliably. On the "
      "Euclidean control most variants do; tapestry, tiers, beaconing "
      "and the starved settings miss there too.");
  const bool quick = np::bench::QuickScale();

  np::bench::Reporter reporter("ablation_static");
  np::util::Table table({"group", "variant", "clustered_p_exact",
                         "clustered_p_cluster", "clustered_probes",
                         "clustered_hops", "euclid_p_exact", "euclid_stretch",
                         "euclid_probes"});
  for (const Group& group : kGroups) {
    auto phase = reporter.Phase(std::string("group_") + group.name);
    np::matrix::ClusteredConfig cconfig;
    cconfig.nets_per_cluster = group.nets_per_cluster;
    cconfig.num_clusters = quick ? group.clusters_quick : group.clusters_full;
    np::util::Rng cluster_rng(group.clustered_seed);
    const auto clustered = np::matrix::GenerateClustered(cconfig, cluster_rng);

    np::util::Rng euclid_rng(group.euclid_seed);
    const auto euclid = np::matrix::GenerateEuclidean(
        clustered.layout.peer_count(), {}, euclid_rng);
    const np::core::MatrixSpace euclid_space(euclid.matrix);

    np::core::ExperimentConfig run;
    run.overlay_size = clustered.layout.peer_count() - group.holdout;
    run.num_queries = quick ? group.queries_quick : group.queries_full;
    run.measurement_noise_frac = group.noise_frac;
    run.measurement_noise_floor_ms = group.noise_floor_ms;

    for (const Variant& variant : group.variants()) {
      const auto clustered_algo = variant.make();
      np::util::Rng clustered_run_rng(group.clustered_runner_seed);
      const auto cm = np::core::RunClusteredExperiment(
          clustered, *clustered_algo, run, clustered_run_rng);
      const auto euclid_algo = variant.make();
      np::util::Rng euclid_run_rng(group.euclid_runner_seed);
      const auto em = np::core::RunGenericExperiment(
          euclid_space, *euclid_algo, run, euclid_run_rng);

      const std::pair<const char*, double> cells[] = {
          {"clustered_p_exact", cm.p_exact_closest},
          {"clustered_p_cluster", cm.p_correct_cluster},
          {"clustered_probes", cm.mean_probes},
          {"clustered_hops", cm.mean_hops},
          {"euclid_p_exact", em.p_exact_closest},
          {"euclid_stretch", em.mean_stretch},
          {"euclid_probes", em.mean_probes},
      };
      const std::string prefix =
          std::string(group.name) + "_" + variant.label + "_";
      std::vector<std::string> row{group.name, variant.label};
      for (const auto& [metric, value] : cells) {
        reporter.Derive(prefix + metric, value);
        row.push_back(np::util::FormatDouble(value, 3));
      }
      table.AddRow(std::move(row));
    }
  }
  np::bench::PrintTable(table);
  np::bench::PrintNote(
      "schemes_oracle probes every member: its probe count is the "
      "brute-force cost every other scheme is trying to avoid.");
  reporter.Write();
  return 0;
}
