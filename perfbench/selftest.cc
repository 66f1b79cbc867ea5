// perfbench_selftest — checks that the benchmark's decorators forward
// every virtual of NearestPeerAlgorithm and LatencySpace: for each
// algorithm at small n, a wrapped run (traced and untraced) must give a
// report identical to the unwrapped run, in scenario and serving mode,
// with and without faults. Exits non-zero on the first mismatch.
//
//   perfbench_selftest
#include <iostream>
#include <string>

#include "trace.h"
#include "util/error.h"
#include "workloads.h"

namespace perfbench {
namespace {

using np::core::ScenarioConfig;
using np::core::ScenarioReport;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) {
    ++g_failures;
  }
}

std::uint64_t CountSpans(const Tracer& tracer, SpanKind kind) {
  std::uint64_t n = 0;
  for (const Span& s : tracer.AllSpans()) {
    n += s.kind == kind ? 1 : 0;
  }
  return n;
}

void CheckAlgorithm(const std::string& name, const np::core::SpaceFactory& world,
                    const np::core::ChurnSchedule& schedule,
                    const ScenarioConfig& config, const std::string& label) {
  const np::core::LatencySpace& bare = world.space();
  const auto plain = MakeAlgorithm(name);
  const ScenarioReport expected =
      np::core::RunScenario(bare, nullptr, *plain, schedule, config);
  const std::string expected_text = CanonicalReport(expected, nullptr);

  {
    TracedAlgorithm thin(MakeAlgorithm(name), nullptr);
    const ScenarioReport got =
        np::core::RunScenario(bare, nullptr, thin, schedule, config);
    Check(np::core::ScenarioReportsIdentical(expected, got) &&
              CanonicalReport(got, nullptr) == expected_text &&
              thin.first_build_end().has_value(),
          name + " " + label + ": untraced wrapper, scenario");
  }
  {
    Tracer tracer;
    const TracedSpace space(bare, tracer);
    TracedAlgorithm traced(MakeAlgorithm(name), &tracer);
    const ScenarioReport got =
        np::core::RunScenario(space, nullptr, traced, schedule, config);
    const Tracer::Totals totals = tracer.Sum();
    std::uint64_t calls = 0;
    for (const std::uint64_t c : totals.calls) {
      calls += c;
    }
    Check(np::core::ScenarioReportsIdentical(expected, got) &&
              CanonicalReport(got, nullptr) == expected_text &&
              CountSpans(tracer, SpanKind::kFind) == got.totals.queries &&
              calls > 0,
          name + " " + label + ": traced wrapper + traced space, scenario");
  }
  if (!plain->SupportsSnapshot()) {
    return;
  }
  np::core::ServingConfig serving;
  serving.scenario = config;
  serving.reader_threads = plain->ParallelQuerySafe() ? 2 : 1;
  const auto plain_serving = MakeAlgorithm(name);
  const np::core::ServingReport expected_serving =
      np::core::RunServing(bare, nullptr, *plain_serving, schedule, serving);
  Tracer tracer;
  const TracedSpace space(bare, tracer);
  TracedAlgorithm traced(MakeAlgorithm(name), &tracer);
  const np::core::ServingReport got =
      np::core::RunServing(space, nullptr, traced, schedule, serving);
  Check(np::core::ScenarioReportsIdentical(expected, got.scenario) &&
            CanonicalReport(got.scenario, &got) ==
                CanonicalReport(expected_serving.scenario, &expected_serving) &&
            CountSpans(tracer, SpanKind::kClone) ==
                static_cast<std::uint64_t>(config.epochs) &&
            CountSpans(tracer, SpanKind::kFind) == got.scenario.totals.queries,
        name + " " + label + ": traced wrapper, serving (" +
            std::to_string(serving.reader_threads) + " readers)");
}

int Run() {
  np::matrix::EmbeddedSpaceConfig embedded;
  embedded.num_nodes = 1500;
  embedded.dimensions = 3;
  embedded.distortion = 0.1;
  embedded.seed = 5;
  const np::core::SpaceFactory world =
      np::core::SpaceFactory::MakeEmbedded(embedded);

  np::core::ChurnScheduleConfig churn;
  churn.duration_s = 300.0;
  churn.events_per_s = 0.3;
  churn.mean_session_s = 150.0;
  churn.seed = 7;
  const np::core::ChurnSchedule schedule = np::core::ChurnSchedule::Poisson(churn);

  ScenarioConfig clean;
  clean.initial_overlay = 150;
  clean.epochs = 2;
  clean.queries_per_epoch = 40;
  clean.num_threads = 2;
  clean.seed = 3;

  ScenarioConfig faulty = clean;
  faulty.num_threads = 1;
  faulty.query_zipf_s = 1.0;
  faulty.fault.loss_rate = 0.05;
  faulty.fault.max_attempts = 2;
  faulty.fault.grey_node_frac = 0.02;
  faulty.fault.grey_loss_rate = 0.5;
  faulty.fault.asymmetric_loss = 0.01;
  faulty.fault.suspicion.strikes = 3;

  for (const std::string& name : AlgorithmNames()) {
    CheckAlgorithm(name, world, schedule, clean, "clean");
    CheckAlgorithm(name, world, schedule, faulty, "faults");
  }
  for (const std::string& workload : WorkloadNames()) {
    const Workload a = MakeWorkload(workload, 1);
    const Workload b = MakeWorkload(workload, 2);
    Check(a.scenario.seed != b.scenario.seed && a.churn.seed != b.churn.seed &&
              a.embedded.seed != b.embedded.seed &&
              a.sparse.seed != b.sparse.seed,
          workload + ": every input seed follows the workload seed");
  }
  std::cout << (g_failures == 0 ? "all checks passed" : "checks failed") << "\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() {
  try {
    return perfbench::Run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_selftest: " << e.what() << std::endl;
    return 1;
  }
}
