// Outside-in tracing for the benchmark.
//
// Two forwarding decorators of the simulator's public interfaces time
// the calls into each layer without touching the library:
//
//   TracedAlgorithm  wraps a NearestPeerAlgorithm. It records a span
//                    around ParallelBuild/Build, FindNearest, AddMember,
//                    RemoveMember and Clone, and tags the calling thread
//                    with the algorithm call that is running.
//   TracedSpace      wraps the backend LatencySpace. It counts every
//                    Latency call by the tag of its thread (untagged =
//                    engine scoring) and times 1 call in kSampleEvery.
//
// With a null Tracer, TracedAlgorithm records nothing but the moment
// its first ParallelBuild returns, which is where the benchmark's
// setup_s ends and run_s begins.
//
// Counters and spans live in per-thread buffers owned by the Tracer;
// no shared counter is written on the probe path, so tracing adds no
// cross-thread contention. Buffers are read only after the threads
// that wrote them have been joined (RunScenario/RunServing join every
// worker before returning).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/latency_space.h"
#include "core/nearest_algorithm.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Which algorithm call was running when a backend Latency call was
/// made. ParallelBuild workers do not inherit the caller's tag, so a
/// process-wide flag marks a build in progress instead.
enum class CallClass : int { kScoring = 0, kQuery = 1, kBuild = 2, kChurn = 3 };
inline constexpr int kCallClasses = 4;

enum class SpanKind : std::uint8_t {
  kRun,  // one algorithm's RunScenario/RunServing call
  kBuild,
  kFind,
  kAdd,
  kRemove,
  kClone,
};
const char* SpanName(SpanKind kind);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  SpanKind kind = SpanKind::kRun;
};

/// One thread's counters and spans.
struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::uint64_t spans_started = 0;
  std::array<std::uint64_t, kCallClasses> calls{};
  std::uint64_t sampled_calls = 0;
  std::int64_t sampled_ns = 0;
  std::vector<Span> spans;
  /// Ids of this thread's open spans, innermost last.
  std::vector<std::uint64_t> open;
};

class Tracer {
 public:
  /// Backend calls timed: one in kSampleEvery per thread.
  static constexpr std::uint64_t kSampleEvery = 64;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's buffer, registered on first use.
  ThreadBuffer& Local();

  /// Nanoseconds since the tracer was created.
  std::int64_t NowNs() const;

  void set_build_in_progress(bool on);
  bool build_in_progress() const;

  /// Parent for spans opened on threads with no open span of their own
  /// (query workers, serving readers): the current kRun span.
  void set_root(std::uint64_t span_id);
  std::uint64_t root() const;

  struct Totals {
    std::array<std::uint64_t, kCallClasses> calls{};
    std::uint64_t sampled_calls = 0;
    std::int64_t sampled_ns = 0;
  };
  /// Sums over every thread. Call only when no traced thread runs.
  Totals Sum() const;
  /// Every recorded span, by thread then start. Same precondition.
  std::vector<Span> AllSpans() const;
  /// Writes AllSpans() as JSON lines; returns false on I/O failure.
  bool WriteSpans(const std::string& path) const;

 private:
  const std::uint64_t generation_;
  const Clock::time_point epoch_;
  std::atomic<bool> build_in_progress_{false};
  std::atomic<std::uint64_t> root_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

/// The tag backend calls on this thread are counted under.
CallClass CurrentCallClass();

/// Records one span on the calling thread and tags it with `tag` for
/// the span's lifetime. A null tracer makes both no-ops.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, CallClass tag);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  ThreadBuffer* buffer_ = nullptr;
  Span span_;
  CallClass saved_tag_ = CallClass::kScoring;
};

/// Forwards every call to the backend; counts and samples when traced.
class TracedSpace final : public np::core::LatencySpace {
 public:
  TracedSpace(const np::core::LatencySpace& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  np::NodeId size() const override { return inner_->size(); }
  np::LatencyMs Latency(np::NodeId a, np::NodeId b) const override;

 private:
  const np::core::LatencySpace* inner_;
  Tracer* tracer_;
};

/// Forwards every virtual of NearestPeerAlgorithm to `inner`.
class TracedAlgorithm final : public np::core::NearestPeerAlgorithm {
 public:
  /// `tracer` may be null (timed runs).
  TracedAlgorithm(std::unique_ptr<np::core::NearestPeerAlgorithm> inner,
                  Tracer* tracer);

  std::string name() const override { return inner_->name(); }
  bool SupportsChurn() const override { return inner_->SupportsChurn(); }
  bool ParallelQuerySafe() const override {
    return inner_->ParallelQuerySafe();
  }
  bool SupportsParallelBuild() const override {
    return inner_->SupportsParallelBuild();
  }
  bool SupportsSnapshot() const override {
    return inner_->SupportsSnapshot();
  }
  const std::vector<np::NodeId>& members() const override {
    return inner_->members();
  }

  void AddMember(np::NodeId node, np::util::Rng& rng) override;
  void RemoveMember(np::NodeId node) override;
  void Build(const np::core::LatencySpace& space,
             std::vector<np::NodeId> members, np::util::Rng& rng) override;
  void ParallelBuild(const np::core::LatencySpace& space,
                     std::vector<np::NodeId> members, np::util::Rng& rng,
                     int num_threads) override;
  np::core::QueryResult FindNearest(np::NodeId target,
                                    const np::core::MeteredSpace& metered,
                                    np::util::Rng& rng) override;
  void AttachProbePolicy(const np::core::ProbePolicy* policy) override;
  /// A wrapped clone of the inner clone, sharing this tracer.
  std::unique_ptr<np::core::NearestPeerAlgorithm> Clone() const override;

  /// When the first ParallelBuild (or Build) returned; empty before.
  std::optional<Clock::time_point> first_build_end() const {
    return first_build_end_;
  }
  /// Traced only: process CPU seconds and RSS growth (MB) over the
  /// first build.
  double build_cpu_s() const { return build_cpu_s_; }
  double build_rss_growth_mb() const { return build_rss_growth_mb_; }

 private:
  template <typename BuildFn>
  void TimedBuild(BuildFn&& build);

  std::unique_ptr<np::core::NearestPeerAlgorithm> inner_;
  Tracer* tracer_;
  std::optional<Clock::time_point> first_build_end_;
  double build_cpu_s_ = 0.0;
  double build_rss_growth_mb_ = 0.0;
};

/// Process CPU time (all threads), seconds.
double ProcessCpuSeconds();
/// Current resident set size, MB.
double CurrentRssMb();
/// Peak resident set size of this process since exec (VmHWM), MB.
double PeakRssMb();

}  // namespace perfbench
