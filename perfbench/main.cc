// perfbench_np — runs one benchmark workload in this process and prints
// one JSON line of measurements on stdout.
//
//   perfbench_np --workload NAME --seed N [--trace] [--replay]
//                [--report FILE] [--spans FILE]
//
//   --trace   wrap the backend in TracedSpace and the algorithms in a
//             tracing TracedAlgorithm; adds per-layer "layers" metrics.
//   --replay  serving workloads: after the timed region, replay each
//             algorithm through RunScenario on a fresh instance and
//             require ScenarioReportsIdentical.
//   --report  write the canonical (wall-clock-free) report here.
//   --spans   write the traced spans here as JSON lines.
//
// perfbench/run.py drives this binary; see perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/epoch_window.h"
#include "matrix/faulty_space.h"
#include "matrix/partitioned_space.h"
#include "trace.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using np::core::ScenarioReport;
using np::core::ServingConfig;
using np::core::ServingReport;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool replay = false;
  std::string report_path;
  std::string spans_path;
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Fixed CPU work, timed: a machine-wide slowdown between runs shows as
/// a longer loop. Returns milliseconds.
double DriftLoopMs() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 0x243F6A8885A308D3ULL;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  // Keeps the loop from being optimised away.
  if (x == 0) {
    std::cerr << "drift loop degenerated\n";
  }
  return ms;
}

/// Percentile (nearest rank) of a sample; 0 for an empty one.
double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return values[index];
}

/// One algorithm's pass through the engine.
struct AlgoRun {
  ScenarioReport report;
  std::optional<ServingReport> serving;
  double setup_s = 0.0;  // population split + first build
  double run_s = 0.0;    // end of first build to engine return
  double build_cpu_s = 0.0;
  double build_rss_growth_mb = 0.0;
  int query_threads = 1;
};

AlgoRun RunAlgorithm(const Workload& w, const np::core::SpaceFactory& world,
                     const np::core::LatencySpace& space,
                     const np::core::ChurnSchedule& schedule,
                     const std::string& name, Tracer* tracer) {
  TracedAlgorithm algo(MakeAlgorithm(name), tracer);
  AlgoRun run;
  std::optional<ScopedSpan> root;
  if (tracer != nullptr) {
    root.emplace(tracer, SpanKind::kRun, CallClass::kScoring);
    tracer->set_root(root->id());
  }
  const Clock::time_point start = Clock::now();
  if (w.serving) {
    ServingConfig config;  // one reader thread
    config.scenario = w.scenario;
    run.serving =
        np::core::RunServing(space, world.layout(), algo, schedule, config);
    run.report = run.serving->scenario;
  } else {
    run.report = np::core::RunScenario(space, world.layout(), algo, schedule,
                                       w.scenario);
    run.query_threads =
        algo.ParallelQuerySafe()
            ? np::util::ResolveThreadCount(w.scenario.num_threads)
            : 1;
  }
  const Clock::time_point end = Clock::now();
  if (tracer != nullptr) {
    root.reset();
    tracer->set_root(0);
    if (!w.serving) {
      // Scenario mode never snapshots; clone the final overlay a few
      // times (outside run_s) so clone cost is measured on every world.
      for (int i = 0; i < 3; ++i) {
        const auto clone = algo.Clone();
        (void)clone;
      }
    }
  }
  NP_ENSURE(algo.first_build_end().has_value(), "the engine never built");
  const Clock::time_point built = *algo.first_build_end();
  run.setup_s = Seconds(built - start);
  run.run_s = Seconds(end - built);
  run.build_cpu_s = algo.build_cpu_s();
  run.build_rss_growth_mb = algo.build_rss_growth_mb();
  return run;
}

/// ns per Latency call over a fixed pair list: 32 targets x 128
/// sources, so a sparse backend's 64-row cache holds every target row.
std::pair<double, double> ProbeCostNs(const Workload& w,
                                      const np::core::SpaceFactory& world,
                                      std::uint64_t seed) {
  const np::core::LatencySpace& bare = world.space();
  np::util::Rng rng(np::util::Mix64(seed ^ 0x9B0BEULL));
  std::vector<std::pair<np::NodeId, np::NodeId>> pairs;
  for (int t = 0; t < 32; ++t) {
    const np::NodeId target = static_cast<np::NodeId>(rng.Index(bare.size()));
    for (int s = 0; s < 128; ++s) {
      pairs.emplace_back(static_cast<np::NodeId>(rng.Index(bare.size())),
                         target);
    }
  }
  const np::core::FaultConfig& fault = w.scenario.fault;
  const std::uint64_t root = np::util::Mix64(seed ^ 0xFA177ULL);
  const np::matrix::PartitionSchedule schedule = np::core::BuildPartitionSchedule(
      fault, world.layout(), bare.size(), root);
  const np::core::NoisySpace noisy(bare, w.scenario.measurement_noise_frac,
                                   np::util::Mix64(root ^ 1),
                                   w.scenario.measurement_noise_floor_ms);
  const np::matrix::PartitionedSpace partitioned(noisy, schedule,
                                                 np::util::Mix64(root ^ 2));
  const np::matrix::FaultySpace faulty(partitioned, fault.loss_rate,
                                       np::util::Mix64(root ^ 3));
  const np::core::MeteredSpace metered(faulty);

  constexpr int kPasses = 32;
  auto time_ns = [&](const np::core::LatencySpace& space) {
    double sink = 0.0;
    for (const auto& [a, b] : pairs) {  // warm caches
      sink += space.Latency(a, b);
    }
    const Clock::time_point start = Clock::now();
    for (int p = 0; p < kPasses; ++p) {
      for (const auto& [a, b] : pairs) {
        const double v = space.Latency(a, b);
        sink += std::isnan(v) ? 0.0 : v;
      }
    }
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() -
                                                               start)
                          .count();
    if (sink < 0.0) {
      std::cerr << "negative latency sum\n";
    }
    return ns / static_cast<double>(kPasses * pairs.size());
  };
  const double bare_ns = time_ns(bare);
  return {bare_ns, time_ns(metered)};
}

class JsonObject {
 public:
  void Add(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    Field(key) << buf;
  }
  void Add(const std::string& key, const std::string& value) {
    Field(key) << '"' << value << '"';
  }
  void AddRaw(const std::string& key, const std::string& json) {
    Field(key) << json;
  }
  void AddMetric(const std::string& key, double value, const std::string& unit) {
    JsonObject metric;
    metric.Add("value", value);
    metric.Add("unit", unit);
    AddRaw(key, metric.str());
  }
  std::string str() const { return "{" + out_.str() + "}"; }

 private:
  std::ostringstream& Field(const std::string& key) {
    if (!first_) {
      out_ << ", ";
    }
    first_ = false;
    out_ << '"' << key << "\": ";
    return out_;
  }
  std::ostringstream out_;
  bool first_ = true;
};

struct SpanStats {
  std::vector<double> us;
  double busy_s = 0.0;
  double in_run_busy_s = 0.0;  // spans inside a RunScenario/RunServing
};

std::map<SpanKind, SpanStats> SummarizeSpans(const std::vector<Span>& spans) {
  std::map<std::uint64_t, bool> is_run;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kRun) {
      is_run[s.id] = true;
    }
  }
  std::map<SpanKind, SpanStats> stats;
  for (const Span& s : spans) {
    SpanStats& st = stats[s.kind];
    const double seconds = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    st.us.push_back(seconds * 1e6);
    st.busy_s += seconds;
    if (is_run.count(s.parent) != 0) {
      st.in_run_busy_s += seconds;
    }
  }
  return stats;
}

std::string LayerMetrics(const Workload& w, const np::core::SpaceFactory& world,
                         const Tracer& tracer,
                         const std::vector<AlgoRun>& runs, double run_s,
                         double run_cpu_s, double world_rss_mb,
                         std::uint64_t seed) {
  const Tracer::Totals totals = tracer.Sum();
  std::map<SpanKind, SpanStats> spans = SummarizeSpans(tracer.AllSpans());

  np::core::ProbeCounter::Snapshot sum;
  double build_cpu_s = 0.0;
  double overlay_mb = 0.0;
  double harness_s = run_s;
  double qps_queries = 0.0;
  double qps_wall_s = 0.0;
  std::vector<double> serving_p50;
  double serving_p99 = 0.0;
  double snapshots = 0.0;
  for (const AlgoRun& run : runs) {
    const auto& t = run.report.totals;
    sum.query_probes += t.query_probes;
    sum.queries += t.queries;
    sum.maintenance_probes += t.maintenance_probes;
    sum.churn_events += t.churn_events;
    sum.build_probes += t.build_probes;
    sum.failed_probes += t.failed_probes;
    sum.retries += t.retries;
    sum.suspicion_skips += t.suspicion_skips;
    build_cpu_s += run.build_cpu_s;
    overlay_mb += run.build_rss_growth_mb;
    if (run.serving) {
      qps_queries += static_cast<double>(t.queries);
      qps_wall_s += run.serving->wall_ms / 1000.0;
      serving_p50.push_back(run.serving->query_latency_p50_us);
      serving_p99 = std::max(serving_p99, run.serving->query_latency_p99_us);
      snapshots += static_cast<double>(run.serving->snapshots_published);
    }
  }
  // Find time is spread over the query threads; churn and clones run on
  // the one engine thread. Each algorithm ran with the same thread count.
  const double query_threads =
      runs.empty() ? 1.0 : static_cast<double>(runs.front().query_threads);
  harness_s -= spans[SpanKind::kAdd].in_run_busy_s +
               spans[SpanKind::kRemove].in_run_busy_s +
               spans[SpanKind::kFind].in_run_busy_s / query_threads +
               spans[SpanKind::kClone].in_run_busy_s;

  const double queries = static_cast<double>(sum.queries);
  const double events = static_cast<double>(sum.churn_events);
  const double billed = static_cast<double>(
      sum.query_probes + sum.maintenance_probes + sum.build_probes);
  const double churn_busy_s =
      spans[SpanKind::kAdd].busy_s + spans[SpanKind::kRemove].busy_s;
  const auto scoring =
      static_cast<double>(totals.calls[static_cast<int>(CallClass::kScoring)]);

  double sparse_misses = 0.0;
  double sparse_hit_rate = 0.0;
  if (const auto* sparse = world.sparse()) {
    const auto cache = sparse->cache_stats();
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    sparse_misses = static_cast<double>(cache.misses);
    sparse_hit_rate =
        lookups > 0.0 ? static_cast<double>(cache.hits) / lookups : 0.0;
  }
  const auto [bare_ns, stack_ns] = ProbeCostNs(w, world, seed);

  JsonObject m;
  m.AddMetric("matrix.calls.scoring", scoring, "count");
  m.AddMetric("matrix.calls.query",
              static_cast<double>(totals.calls[static_cast<int>(CallClass::kQuery)]),
              "count");
  m.AddMetric("matrix.calls.build",
              static_cast<double>(totals.calls[static_cast<int>(CallClass::kBuild)]),
              "count");
  m.AddMetric("matrix.calls.churn",
              static_cast<double>(totals.calls[static_cast<int>(CallClass::kChurn)]),
              "count");
  m.AddMetric("matrix.ns_per_call",
              totals.sampled_calls == 0
                  ? 0.0
                  : static_cast<double>(totals.sampled_ns) /
                        static_cast<double>(totals.sampled_calls),
              "ns");
  m.AddMetric("matrix.probe_ns.bare", bare_ns, "ns");
  m.AddMetric("matrix.probe_ns.stack", stack_ns, "ns");
  m.AddMetric("matrix.sparse.misses", sparse_misses, "count");
  m.AddMetric("matrix.sparse.hit_rate", sparse_hit_rate, "ratio");
  m.AddMetric("algos.build_s", spans[SpanKind::kBuild].busy_s, "s");
  m.AddMetric("algos.build_cpu_s", build_cpu_s, "s");
  m.AddMetric("algos.find_us.p50", Percentile(spans[SpanKind::kFind].us, 50), "us");
  m.AddMetric("algos.find_us.p99", Percentile(spans[SpanKind::kFind].us, 99), "us");
  m.AddMetric("algos.find_busy_s", spans[SpanKind::kFind].busy_s, "s");
  m.AddMetric("algos.add_us.p50", Percentile(spans[SpanKind::kAdd].us, 50), "us");
  m.AddMetric("algos.add_us.p99", Percentile(spans[SpanKind::kAdd].us, 99), "us");
  m.AddMetric("algos.remove_us.p50", Percentile(spans[SpanKind::kRemove].us, 50),
              "us");
  m.AddMetric("algos.remove_us.p99", Percentile(spans[SpanKind::kRemove].us, 99),
              "us");
  m.AddMetric("algos.churn_busy_s", churn_busy_s, "s");
  m.AddMetric("algos.clone_us.p50", Percentile(spans[SpanKind::kClone].us, 50),
              "us");
  m.AddMetric("algos.clone_us.max", Percentile(spans[SpanKind::kClone].us, 100),
              "us");
  m.AddMetric("algos.clones", static_cast<double>(spans[SpanKind::kClone].us.size()),
              "count");
  m.AddMetric("algos.probes_per_query",
              queries > 0.0 ? static_cast<double>(sum.query_probes) / queries : 0.0,
              "count");
  m.AddMetric("algos.maint_per_event",
              events > 0.0 ? static_cast<double>(sum.maintenance_probes) / events
                           : 0.0,
              "count");
  m.AddMetric("algos.build_probes", static_cast<double>(sum.build_probes),
              "count");
  m.AddMetric("query_batch.scoring_calls_per_query",
              queries > 0.0 ? scoring / queries : 0.0, "count");
  m.AddMetric("query_batch.harness_s", harness_s, "s");
  m.AddMetric("churn.events", events, "count");
  m.AddMetric("churn.us_per_event",
              events > 0.0 ? churn_busy_s * 1e6 / events : 0.0, "us");
  m.AddMetric("serving.qps", qps_wall_s > 0.0 ? qps_queries / qps_wall_s : 0.0,
              "1/s");
  double p50 = 0.0;
  for (const double v : serving_p50) {
    p50 += v / static_cast<double>(serving_p50.size());
  }
  m.AddMetric("serving.query_us.p50", p50, "us");
  m.AddMetric("serving.query_us.p99", serving_p99, "us");
  m.AddMetric("serving.snapshots", snapshots, "count");
  m.AddMetric("probe_policy.retries", static_cast<double>(sum.retries), "count");
  m.AddMetric("probe_policy.failed_probes", static_cast<double>(sum.failed_probes),
              "count");
  m.AddMetric("probe_policy.suspicion_skips",
              static_cast<double>(sum.suspicion_skips), "count");
  m.AddMetric("probe_policy.useful_ratio",
              billed > 0.0
                  ? (billed - static_cast<double>(sum.failed_probes)) / billed
                  : 0.0,
              "ratio");
  m.AddMetric("mem.world_mb", world_rss_mb, "MB");
  m.AddMetric("mem.overlay_mb", overlay_mb, "MB");
  m.AddMetric("process.run_cpu_s", run_cpu_s, "s");
  return m.str();
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::stoull(argv[++i]);
    } else if (arg == "--report" && has_value) {
      o.report_path = argv[++i];
    } else if (arg == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--replay") {
      o.replay = true;
    } else {
      throw np::util::Error("unknown argument: " + arg);
    }
  }
  if (o.workload.empty()) {
    throw np::util::Error(
        "usage: perfbench_np --workload NAME --seed N [--trace] [--replay] "
        "[--report FILE] [--spans FILE]");
  }
  return o;
}

int Run(const Options& options) {
  const Workload w = MakeWorkload(options.workload, options.seed);
  const double drift_start_ms = DriftLoopMs();

  std::optional<Tracer> tracer;
  if (options.trace) {
    tracer.emplace();
  }
  Tracer* const tracer_ptr = tracer ? &*tracer : nullptr;

  // --- Timed region --------------------------------------------------------
  const Clock::time_point start = Clock::now();
  const np::core::SpaceFactory world = MakeWorld(w);
  const np::core::ChurnSchedule schedule = np::core::ChurnSchedule::Poisson(w.churn);
  const double world_s = Seconds(Clock::now() - start);
  const double world_rss_mb = CurrentRssMb();

  std::optional<TracedSpace> traced_space;
  if (tracer) {
    traced_space.emplace(world.space(), *tracer);
  }
  const np::core::LatencySpace& space =
      traced_space ? static_cast<const np::core::LatencySpace&>(*traced_space)
                   : world.space();

  std::vector<AlgoRun> runs;
  double setup_s = world_s;
  double run_s = 0.0;
  const double cpu_start = ProcessCpuSeconds();
  for (const std::string& name : w.algorithms) {
    runs.push_back(RunAlgorithm(w, world, space, schedule, name, tracer_ptr));
    setup_s += runs.back().setup_s;
    run_s += runs.back().run_s;
  }
  const double run_cpu_s = ProcessCpuSeconds() - cpu_start;
  const double peak_rss_mb = PeakRssMb();
  // --- End of timed region -------------------------------------------------

  const Clock::time_point replay_start = Clock::now();
  std::string replay = "unchecked";
  if (options.replay && w.serving) {
    replay = "identical";
    for (std::size_t a = 0; a < runs.size(); ++a) {
      const auto fresh = MakeAlgorithm(w.algorithms[a]);
      const ScenarioReport serial = np::core::RunScenario(
          world.space(), world.layout(), *fresh, schedule, w.scenario);
      if (!np::core::ScenarioReportsIdentical(runs[a].report, serial)) {
        replay = "diverged";
      }
    }
  }
  const double replay_s = Seconds(Clock::now() - replay_start);

  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::string canonical;
  for (const AlgoRun& run : runs) {
    queries += run.report.totals.queries;
    failed += run.report.failed_queries;
    canonical += CanonicalReport(run.report, run.serving ? &*run.serving : nullptr);
  }
  if (!options.report_path.empty()) {
    std::ofstream out(options.report_path, std::ios::binary);
    out << canonical;
    NP_ENSURE(static_cast<bool>(out.flush()), "cannot write the report file");
  }

  std::string layers;
  if (tracer) {
    layers = LayerMetrics(w, world, *tracer, runs, run_s, run_cpu_s,
                          world_rss_mb, options.seed);
    if (!options.spans_path.empty()) {
      NP_ENSURE(tracer->WriteSpans(options.spans_path),
                "cannot write the spans file");
    }
  }
  const double drift_end_ms = DriftLoopMs();

  JsonObject result;
  result.Add("workload", w.name);
  result.AddRaw("seed", std::to_string(options.seed));
  result.Add("setup_s", setup_s);
  result.Add("run_s", run_s);
  result.Add("world_s", world_s);
  result.Add("peak_rss_mb", peak_rss_mb);
  result.Add("run_cpu_s", run_cpu_s);
  result.Add("queries", static_cast<double>(queries));
  result.Add("failed_queries", static_cast<double>(failed));
  result.Add("replay", replay);
  result.Add("replay_s", replay_s);
  result.Add("drift_start_ms", drift_start_ms);
  result.Add("drift_end_ms", drift_end_ms);
  if (tracer) {
    result.AddRaw("layers", layers);
  }
  std::cout << result.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseOptions(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_np: " << e.what() << std::endl;
    return 1;
  }
}
