#include "core/experiment.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "core/probe_stack.h"
#include "core/query_batch.h"
#include "util/contract.h"
#include "util/stats.h"

namespace np::core {

namespace {

/// The §4 protocol shared by both runners: a random overlay split, a
/// build whose measurements carry the same noise as query probes (no
/// real overlay gets to memorize exact latencies, which matters for
/// triangulation schemes like Beaconing), then a fault-free query batch
/// on the engines' kernel. Query q draws its RNG and noise from seeds
/// `base ^ q`, so outcomes are thread-count invariant and come back in
/// query order.
std::vector<QueryOutcome> RunStaticQueries(const LatencySpace& space,
                                           const matrix::ClusterLayout* layout,
                                           NearestPeerAlgorithm& algo,
                                           const ExperimentConfig& config,
                                           util::Rng& rng) {
  NP_ENSURE(config.num_queries >= 1, "num_queries must be >= 1");
  const OverlaySplit split =
      SplitOverlay(space.size(), config.overlay_size, rng);
  const ProbeFaults noise{config.measurement_noise_frac,
                          config.measurement_noise_floor_ms};
  const ProbeStack build(space, noise, ProbeSeeds{rng()});
  algo.Build(build.metered(), split.members, rng);

  QueryBatch batch;
  batch.space = &space;
  batch.layout = layout;
  batch.members = &split.members;
  batch.pool = &split.targets;
  batch.noise_frac = config.measurement_noise_frac;
  batch.noise_floor_ms = config.measurement_noise_floor_ms;
  batch.noise_base = rng();
  batch.query_base = rng();
  return RunQueryBatch(batch, algo, config.num_threads,
                       static_cast<std::size_t>(config.num_queries));
}

}  // namespace

void ValidateOverlaySplit(std::size_t num_nodes, NodeId overlay_size) {
  NP_ENSURE(overlay_size >= 1, "overlay must be non-empty");
  NP_ENSURE(static_cast<std::size_t>(overlay_size) < num_nodes,
            "need at least one node left over as a target");
}

OverlaySplit SplitNodes(std::vector<NodeId> nodes, NodeId overlay_size,
                        util::Rng& rng) {
  ValidateOverlaySplit(nodes.size(), overlay_size);
  rng.Shuffle(nodes);
  OverlaySplit split;
  split.members.assign(nodes.begin(), nodes.begin() + overlay_size);
  split.targets.assign(nodes.begin() + overlay_size, nodes.end());
  return split;
}

OverlaySplit SplitOverlay(NodeId space_size, NodeId overlay_size,
                          util::Rng& rng) {
  std::vector<NodeId> all(static_cast<std::size_t>(space_size));
  std::iota(all.begin(), all.end(), NodeId{0});
  return SplitNodes(std::move(all), overlay_size, rng);
}

ClusteredMetrics RunClusteredExperiment(const LatencySpace& space,
                                        const matrix::ClusterLayout& layout,
                                        NearestPeerAlgorithm& algo,
                                        const ExperimentConfig& config,
                                        util::Rng& rng) {
  NP_REPORT_AFFECTING();
  const std::vector<QueryOutcome> outcomes =
      RunStaticQueries(space, &layout, algo, config, rng);

  ClusteredMetrics metrics;
  metrics.num_queries = config.num_queries;
  int exact = 0;
  int correct_cluster = 0;
  int same_net = 0;
  double total_latency = 0.0;
  double total_hops = 0.0;
  std::uint64_t total_probes = 0;
  std::vector<double> wrong_hub_latencies;
  wrong_hub_latencies.reserve(outcomes.size());
  for (const QueryOutcome& out : outcomes) {
    total_probes += out.probes;
    total_hops += out.hops;
    total_latency += out.found_latency;
    if (out.exact) {
      ++exact;
    } else {
      wrong_hub_latencies.push_back(layout.HubLatencyOfPeer(out.found));
    }
    correct_cluster += out.correct_cluster ? 1 : 0;
    same_net += out.same_net ? 1 : 0;
  }
  const double n = static_cast<double>(config.num_queries);
  metrics.p_exact_closest = exact / n;
  metrics.p_correct_cluster = correct_cluster / n;
  metrics.p_same_net = same_net / n;
  metrics.mean_found_latency_ms = total_latency / n;
  metrics.mean_probes = static_cast<double>(total_probes) / n;
  metrics.mean_hops = total_hops / n;
  metrics.median_wrong_hub_latency_ms =
      wrong_hub_latencies.empty()
          ? 0.0
          : util::Percentile(std::move(wrong_hub_latencies), 50.0);
  return metrics;
}

ClusteredMetrics RunClusteredExperiment(const matrix::ClusteredWorld& world,
                                        NearestPeerAlgorithm& algo,
                                        const ExperimentConfig& config,
                                        util::Rng& rng) {
  const MatrixSpace space(world.matrix);
  return RunClusteredExperiment(space, world.layout, algo, config, rng);
}

GenericMetrics RunGenericExperiment(const LatencySpace& space,
                                    NearestPeerAlgorithm& algo,
                                    const ExperimentConfig& config,
                                    util::Rng& rng) {
  NP_REPORT_AFFECTING();
  const std::vector<QueryOutcome> outcomes =
      RunStaticQueries(space, nullptr, algo, config, rng);

  GenericMetrics metrics;
  metrics.num_queries = config.num_queries;
  int exact = 0;
  double total_stretch = 0.0;
  double total_abs_error = 0.0;
  double total_hops = 0.0;
  std::uint64_t total_probes = 0;
  for (const QueryOutcome& out : outcomes) {
    total_probes += out.probes;
    total_hops += out.hops;
    if (out.exact) {
      ++exact;
    }
    total_abs_error += out.found_latency - out.truth_latency;
    // Stretch is undefined when the optimum is ~0; floor the
    // denominator at 1 us.
    total_stretch += out.found_latency / std::max(out.truth_latency, 1e-3);
  }
  const double n = static_cast<double>(config.num_queries);
  metrics.p_exact_closest = exact / n;
  metrics.mean_stretch = total_stretch / n;
  metrics.mean_abs_error_ms = total_abs_error / n;
  metrics.mean_probes = static_cast<double>(total_probes) / n;
  metrics.mean_hops = total_hops / n;
  return metrics;
}

}  // namespace np::core
