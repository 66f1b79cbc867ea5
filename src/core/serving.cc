#include "core/serving.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "core/engine_setup.h"
#include "core/overlay_snapshot.h"
#include "core/probe_policy.h"
#include "core/query_batch.h"
#include "util/contract.h"
#include "util/error.h"
#include "util/stats.h"

namespace np::core {

namespace {

/// Everything one epoch's readers and the post-run reduction need.
/// The writer fills a slot completely before publishing the epoch's
/// snapshot; the publisher's mutex/condvar hand-off makes the writes
/// visible to readers.
struct EpochSlot {
  /// Churn/maintenance fields, filled by the writer.
  EpochReport er;
  /// Maintenance-side fault deltas over this epoch's window (main
  /// counter); query-side deltas live in reader_counter.
  FaultDeltas maint_faults;
  /// Membership copy for post-run staleness scoring (kept out of the
  /// snapshot so holding it does not extend snapshot lifetime).
  std::vector<NodeId> members;
  /// Per-epoch query-side ledger, shared by all readers of the epoch
  /// and merged into the main counter at reduction.
  std::unique_ptr<ProbeCounter> reader_counter;
  /// Frozen copy of the suspicion ledger at this epoch's window end:
  /// readers consult the quarantine set without racing the writer's
  /// strike recording (recording stays off on the copy).
  std::unique_ptr<SuspicionLedger> reader_suspicion;
  std::unique_ptr<ProbePolicy> reader_policy;
  std::vector<double> zipf_cdf;
  /// Membership change since the previous epoch (from nothing at
  /// epoch 0); its liveness test is this epoch's membership.
  std::optional<MemberDelta> delta;
  QueryBatch batch;
  /// One truth memo per reader's query chunk, each written only by its
  /// reader, which carries it into the next epoch's chunk; the
  /// staleness pass reads them after the join.
  std::vector<TruthMemo> memos;
  std::vector<QueryOutcome> outcomes;
  /// Wall-clock per-query service time, microseconds.
  std::vector<double> latency_us;
};

/// Microseconds since `since`, which then moves to now.
double LapUs(std::chrono::steady_clock::time_point& since) {
  NP_LINT_SUPPRESS("banned-call", "wall_* quarantine: qps/p99 only");
  const auto now = std::chrono::steady_clock::now();
  const double us =
      std::chrono::duration<double, std::micro>(now - since).count();
  since = now;
  return us;
}

}  // namespace

ServingReport RunServing(const LatencySpace& space,
                         const matrix::ClusterLayout* layout,
                         NearestPeerAlgorithm& algo,
                         const ChurnSchedule& schedule,
                         const ServingConfig& config,
                         const std::vector<NodeId>& population) {
  NP_REPORT_AFFECTING();
  const ScenarioConfig& sc = config.scenario;
  NP_ENSURE(config.reader_threads >= 1, "need at least one reader thread");
  NP_ENSURE(!sc.fault.track_load,
            "serving mode cannot attribute per-node load: reader probes "
            "race the writer's epoch boundaries");
  NP_ENSURE(algo.SupportsSnapshot(),
            "serving mode requires snapshot support (Clone)");
  NP_ENSURE(config.reader_threads == 1 || algo.ParallelQuerySafe(),
            "multiple reader threads require a ParallelQuerySafe algorithm");

  // --- Setup: the same EngineSetup serial replay runs ------------------
  EngineSetup setup(space, layout, algo, schedule, sc, population);
  ServingReport sr;
  sr.reader_threads = config.reader_threads;
  ScenarioReport& report = sr.scenario;
  report = setup.header();
  const ChurnDriver& driver = setup.driver();
  ProbeCounter& counter = setup.counter();

  // --- Writer/reader rendezvous ------------------------------------------
  const int n_readers = config.reader_threads;
  const std::size_t queries =
      static_cast<std::size_t>(sc.queries_per_epoch);
  // Reader t runs query chunk t.
  const auto chunks = static_cast<std::size_t>(n_readers);
  std::vector<EpochSlot> slots(static_cast<std::size_t>(sc.epochs));
  SnapshotPublisher publisher;

  // Pin accounting: the writer publishes epoch k+1 only after every
  // reader pinned epoch k. A reader pins k only after dropping k-1, so
  // this bounds the retired chain (at most the snapshot being
  // superseded stays transiently alive) and keeps writer and readers
  // at most one epoch apart.
  std::mutex pin_mu;
  std::condition_variable pin_cv;
  std::vector<int> pinned(static_cast<std::size_t>(sc.epochs), 0);
  bool reader_failed = false;
  std::string reader_error;

  NP_LINT_SUPPRESS("banned-call", "wall_* quarantine: qps/p99 only");
  auto serve_start = std::chrono::steady_clock::now();

  std::vector<std::thread> readers;
  readers.reserve(static_cast<std::size_t>(n_readers));
  for (int t = 0; t < n_readers; ++t) {
    readers.emplace_back([&, t] {
      try {
        for (int epoch = 0; epoch < sc.epochs; ++epoch) {
          // Pinned for the whole epoch; dropped (and so reclaimable)
          // when the loop iteration ends.
          const std::shared_ptr<const OverlaySnapshot> snap =
              publisher.WaitForEpoch(epoch);
          NP_ENSURE(snap != nullptr, "publisher closed mid-run");
          {
            std::lock_guard<std::mutex> lock(pin_mu);
            ++pinned[static_cast<std::size_t>(epoch)];
          }
          pin_cv.notify_all();

          EpochSlot& slot = slots[static_cast<std::size_t>(epoch)];
          // Static partition into disjoint outcome slots; the serial
          // post-join reduction in query order restores thread-count
          // invariance.
          const auto chunk = static_cast<std::size_t>(t);
          NP_LINT_SUPPRESS("banned-call", "wall_* quarantine: qps/p99 only");
          auto q_start = std::chrono::steady_clock::now();
          const auto time_query = [&](std::size_t q) {
            slot.latency_us[q] = LapUs(q_start);
          };
          // This reader filled the previous epoch's memo for its chunk
          // itself, so carrying from it races no one.
          const TruthMemo* prev =
              epoch > 0 ? &slots[static_cast<std::size_t>(epoch - 1)]
                               .memos[chunk]
                        : nullptr;
          RunQueryChunk(slot.batch, *snap->algo, chunk, chunks,
                        slot.memos[chunk], slot.outcomes, time_query, prev);
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(pin_mu);
        if (!reader_failed) {
          reader_failed = true;
          reader_error = e.what();
        }
        pin_cv.notify_all();
      }
    });
  }

  // --- Writer loop (this thread) -----------------------------------------
  // Window k+1 is applied to the live overlay while readers still
  // query snapshot k — the concurrency the mode exists to exercise.
  bool writer_aborted = false;
  for (int epoch = 0; epoch < sc.epochs; ++epoch) {
    EpochSlot& slot = slots[static_cast<std::size_t>(epoch)];
    setup.RunWindow(epoch, slot.er);
    slot.maint_faults = setup.TakeFaultDeltas();

    auto snap = std::make_shared<OverlaySnapshot>();
    snap->epoch = epoch;
    snap->algo = algo.Clone();
    snap->members = driver.members();
    snap->pool = driver.pool();
    snap->crashed = driver.crashed();

    slot.members = snap->members;
    slot.zipf_cdf = setup.TargetCdf(snap->pool);
    slot.reader_counter = std::make_unique<ProbeCounter>();
    if (report.suspicion_mode) {
      // Copied after the window closed, so the frozen quarantine set is
      // exactly what serial replay's queries consult.
      slot.reader_suspicion =
          std::make_unique<SuspicionLedger>(setup.suspicion());
      slot.reader_suspicion->set_recording(false);
    }
    slot.reader_policy = std::make_unique<ProbePolicy>(
        sc.fault.max_attempts, slot.reader_counter.get(),
        slot.reader_suspicion.get());
    snap->algo->AttachProbeCounter(slot.reader_counter.get());
    snap->algo->AttachProbePolicy(slot.reader_policy.get());

    slot.memos.resize(chunks);
    slot.outcomes.resize(queries);
    slot.latency_us.resize(queries);
    slot.batch = setup.Batch(epoch, snap->members, snap->pool, snap->crashed,
                             slot.zipf_cdf);
    const std::vector<NodeId> none;
    slot.delta.emplace(
        epoch > 0 ? slots[static_cast<std::size_t>(epoch - 1)].members : none,
        slot.members, space.size());
    slot.batch.delta = &*slot.delta;

    if (epoch > 0) {
      // Epoch rendezvous: don't outrun readers by more than one epoch.
      std::unique_lock<std::mutex> lock(pin_mu);
      pin_cv.wait(lock, [&] {
        return reader_failed ||
               pinned[static_cast<std::size_t>(epoch - 1)] == n_readers;
      });
      if (reader_failed) {
        writer_aborted = true;
        break;
      }
    }
    publisher.Publish(std::shared_ptr<const OverlaySnapshot>(std::move(snap)));
    sr.max_retired_alive =
        std::max(sr.max_retired_alive, publisher.retired_alive());
  }
  publisher.Close();
  for (std::thread& reader : readers) {
    reader.join();
  }
  sr.wall_ms = LapUs(serve_start) / 1000.0;
  {
    std::lock_guard<std::mutex> lock(pin_mu);
    NP_ENSURE(!reader_failed && !writer_aborted,
              ("serving reader failed: " + reader_error).c_str());
  }
  sr.snapshots_published = publisher.published_count();

  // --- Serial reduction, in epoch and query order ------------------------
  std::vector<double> all_latency_us;
  all_latency_us.reserve(slots.size() * queries);
  for (std::size_t k = 0; k < slots.size(); ++k) {
    EpochSlot& slot = slots[k];
    ReduceQueryOutcomes(slot.outcomes, slot.er, &report.failed_queries);
    if (slot.batch.active_window != nullptr) {
      slot.er.components =
          SplitByComponent(slot.outcomes, slot.members,
                           *slot.batch.active_window);
    }

    const ProbeCounter::Snapshot reader_snap = slot.reader_counter->Read();
    counter.AddQueries(reader_snap.queries);
    counter.AddQueryProbes(reader_snap.query_probes);
    counter.AddFailedProbes(reader_snap.failed_probes);
    counter.AddRetries(reader_snap.retries);
    counter.AddSuspicionSkips(reader_snap.suspicion_skips);
    counter.AddProbationProbes(reader_snap.probation_probes);
    // Serial replay's per-epoch delta spans the window plus the
    // queries; here the two halves are ledgered apart and recombined.
    slot.maint_faults.AddTo(slot.er);
    FaultDeltas::Between({}, reader_snap).AddTo(slot.er);

    report.epochs.push_back(slot.er);
    all_latency_us.insert(all_latency_us.end(), slot.latency_us.begin(),
                          slot.latency_us.end());
  }

  setup.Finish(report);

  // --- Staleness: epoch k scored against epoch k+1's membership ----------
  for (std::size_t k = 0; k < slots.size(); ++k) {
    const EpochSlot& slot = slots[k];
    const EpochSlot& next = k + 1 < slots.size() ? slots[k + 1] : slot;
    const MemberDelta& next_delta = *next.delta;
    // The next epoch's readers already scored the targets they drew
    // against exactly this membership; the rest carry their epoch-k
    // truth across the next epoch's delta (or, failing that, rescan).
    TruthMemo misses;
    std::int64_t exact_live = 0;
    std::int64_t departed = 0;
    for (const QueryOutcome& out : slot.outcomes) {
      if (out.failed) {
        continue;  // counts as not exact-live, not as departed
      }
      if (!next_delta.Live(out.found)) {
        ++departed;
        continue;
      }
      const TargetTruth* truth = nullptr;
      for (const TruthMemo& memo : next.memos) {
        truth = memo.Find(out.target);
        if (truth != nullptr) {
          break;
        }
      }
      if (truth == nullptr) {
        const TruthMemo* scored = nullptr;
        for (const TruthMemo& memo : slot.memos) {
          if (memo.Find(out.target) != nullptr) {
            scored = &memo;
            break;
          }
        }
        truth = &misses.Get(space, next.members, out.target, nullptr, scored,
                            &next_delta);
      }
      if (out.found_latency <= truth->closest_latency + kTieEpsilonMs) {
        ++exact_live;
      }
    }
    StalenessReport st;
    st.epoch = static_cast<int>(k);
    const double n = static_cast<double>(slot.outcomes.size());
    st.p_exact_live = static_cast<double>(exact_live) / n;
    st.p_found_departed = static_cast<double>(departed) / n;
    sr.staleness.push_back(st);
  }

  // --- Wall-clock service metrics ----------------------------------------
  if (!all_latency_us.empty()) {
    std::sort(all_latency_us.begin(), all_latency_us.end());
    sr.query_latency_p50_us = util::PercentileSorted(all_latency_us, 50.0);
    sr.query_latency_p99_us = util::PercentileSorted(all_latency_us, 99.0);
    if (sr.wall_ms > 0.0) {
      sr.qps = static_cast<double>(all_latency_us.size()) /
               (sr.wall_ms / 1000.0);
    }
  }
  return sr;
}

bool ScenarioReportsIdentical(const ScenarioReport& a,
                              const ScenarioReport& b) {
  return a == b;
}

}  // namespace np::core
