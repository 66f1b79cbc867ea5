#include "trace.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <utility>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_next_generation{1};

// The calling thread's buffer and the tracer generation it belongs to;
// a new Tracer (new generation) makes every thread register again.
thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::uint64_t t_generation = 0;
thread_local CallClass t_tag = CallClass::kScoring;

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun:
      return "run";
    case SpanKind::kBuild:
      return "build";
    case SpanKind::kFind:
      return "find";
    case SpanKind::kAdd:
      return "add";
    case SpanKind::kRemove:
      return "remove";
    case SpanKind::kClone:
      return "clone";
  }
  return "?";
}

Tracer::Tracer()
    : generation_(g_next_generation.fetch_add(1)), epoch_(Clock::now()) {}

ThreadBuffer& Tracer::Local() {
  if (t_generation != generation_) {
    auto buffer = std::make_unique<ThreadBuffer>();
    const std::lock_guard<std::mutex> lock(mu_);
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    t_buffer = buffer.get();
    t_generation = generation_;
    buffers_.push_back(std::move(buffer));
  }
  return *t_buffer;
}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::set_build_in_progress(bool on) {
  build_in_progress_.store(on, std::memory_order_relaxed);
}

bool Tracer::build_in_progress() const {
  return build_in_progress_.load(std::memory_order_relaxed);
}

void Tracer::set_root(std::uint64_t span_id) {
  root_.store(span_id, std::memory_order_relaxed);
}

std::uint64_t Tracer::root() const {
  return root_.load(std::memory_order_relaxed);
}

Tracer::Totals Tracer::Sum() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Totals totals;
  for (const auto& buffer : buffers_) {
    for (int c = 0; c < kCallClasses; ++c) {
      totals.calls[c] += buffer->calls[c];
    }
    totals.sampled_calls += buffer->sampled_calls;
    totals.sampled_ns += buffer->sampled_ns;
  }
  return totals;
}

std::vector<Span> Tracer::AllSpans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> spans;
  for (const auto& buffer : buffers_) {
    spans.insert(spans.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return spans;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  for (const Span& s : AllSpans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << SpanName(s.kind) << "\",\"thread\":" << s.thread
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

CallClass CurrentCallClass() { return t_tag; }

ScopedSpan::ScopedSpan(Tracer* tracer, SpanKind kind, CallClass tag)
    : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  buffer_ = &tracer_->Local();
  // Ids are unique without a shared counter: thread index in the top
  // bits, a per-thread sequence number below.
  span_.id = (static_cast<std::uint64_t>(buffer_->thread + 1) << 40) |
             ++buffer_->spans_started;
  span_.parent = buffer_->open.empty() ? tracer_->root() : buffer_->open.back();
  span_.thread = buffer_->thread;
  span_.kind = kind;
  buffer_->open.push_back(span_.id);
  saved_tag_ = t_tag;
  t_tag = tag;
  span_.start_ns = tracer_->NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) {
    return;
  }
  span_.end_ns = tracer_->NowNs();
  t_tag = saved_tag_;
  buffer_->open.pop_back();
  buffer_->spans.push_back(span_);
}

np::LatencyMs TracedSpace::Latency(np::NodeId a, np::NodeId b) const {
  ThreadBuffer& buffer = tracer_->Local();
  const CallClass tag =
      tracer_->build_in_progress() ? CallClass::kBuild : t_tag;
  const std::uint64_t n = ++buffer.calls[static_cast<int>(tag)];
  if (n % Tracer::kSampleEvery != 0) {
    return inner_->Latency(a, b);
  }
  const Clock::time_point start = Clock::now();
  const np::LatencyMs latency = inner_->Latency(a, b);
  buffer.sampled_ns +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count();
  ++buffer.sampled_calls;
  return latency;
}

TracedAlgorithm::TracedAlgorithm(
    std::unique_ptr<np::core::NearestPeerAlgorithm> inner, Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

void TracedAlgorithm::AddMember(np::NodeId node, np::util::Rng& rng) {
  const ScopedSpan span(tracer_, SpanKind::kAdd, CallClass::kChurn);
  inner_->AddMember(node, rng);
}

void TracedAlgorithm::RemoveMember(np::NodeId node) {
  const ScopedSpan span(tracer_, SpanKind::kRemove, CallClass::kChurn);
  inner_->RemoveMember(node);
}

template <typename BuildFn>
void TracedAlgorithm::TimedBuild(BuildFn&& build) {
  if (tracer_ == nullptr) {
    build();
  } else {
    const bool first = !first_build_end_.has_value();
    const double cpu_before = ProcessCpuSeconds();
    const double rss_before = CurrentRssMb();
    {
      const ScopedSpan span(tracer_, SpanKind::kBuild, CallClass::kBuild);
      tracer_->set_build_in_progress(true);
      build();
      tracer_->set_build_in_progress(false);
    }
    if (first) {
      build_cpu_s_ = ProcessCpuSeconds() - cpu_before;
      build_rss_growth_mb_ = CurrentRssMb() - rss_before;
    }
  }
  if (!first_build_end_) {
    first_build_end_ = Clock::now();
  }
}

void TracedAlgorithm::Build(const np::core::LatencySpace& space,
                            std::vector<np::NodeId> members,
                            np::util::Rng& rng) {
  TimedBuild([&] { inner_->Build(space, std::move(members), rng); });
}

void TracedAlgorithm::ParallelBuild(const np::core::LatencySpace& space,
                                    std::vector<np::NodeId> members,
                                    np::util::Rng& rng, int num_threads) {
  TimedBuild([&] {
    inner_->ParallelBuild(space, std::move(members), rng, num_threads);
  });
}

np::core::QueryResult TracedAlgorithm::FindNearest(
    np::NodeId target, const np::core::MeteredSpace& metered,
    np::util::Rng& rng) {
  const ScopedSpan span(tracer_, SpanKind::kFind, CallClass::kQuery);
  return inner_->FindNearest(target, metered, rng);
}

void TracedAlgorithm::AttachProbePolicy(const np::core::ProbePolicy* policy) {
  NearestPeerAlgorithm::AttachProbePolicy(policy);
  inner_->AttachProbePolicy(policy);
}

std::unique_ptr<np::core::NearestPeerAlgorithm> TracedAlgorithm::Clone()
    const {
  const ScopedSpan span(tracer_, SpanKind::kClone, CurrentCallClass());
  // The inner clone comes back detached; a fresh wrapper has no counter
  // or policy attached either, which is the Clone contract.
  return std::make_unique<TracedAlgorithm>(inner_->Clone(), tracer_);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  // VmHWM, not ru_maxrss: ru_maxrss keeps the high-water mark of the
  // address space replaced by exec, so a child forked from a large
  // parent would report the parent's memory.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
