#include "bench/reporter.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench/common.h"
#include "util/contract.h"
#include "util/error.h"
#include "util/json.h"

namespace np::bench {
namespace {

using util::JsonEscape;

/// JSON-safe number formatting: fixed notation with enough digits for
/// ms-resolution timings and ratios; never locale-dependent. inf/nan
/// (e.g. a speedup ratio over a 0 ms phase on a coarse clock) have no
/// JSON literal and serialize as null.
std::string FormatNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(6);
  out << std::fixed << v;
  return out.str();
}

}  // namespace

PhaseTimer::PhaseTimer(Reporter& reporter, std::string name, double ops)
    : reporter_(&reporter),
      name_(std::move(name)),
      ops_(ops),
      start_(std::chrono::steady_clock::now()) {}

PhaseTimer::PhaseTimer(PhaseTimer&& other) noexcept
    : reporter_(other.reporter_),
      name_(std::move(other.name_)),
      ops_(other.ops_),
      start_(other.start_),
      stopped_(other.stopped_) {
  other.stopped_ = true;
}

double PhaseTimer::Stop() {
  if (stopped_) {
    return 0.0;
  }
  stopped_ = true;
  NP_LINT_SUPPRESS("banned-call", "wall_* quarantine: wall_ms phases");
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  reporter_->RecordPhase(name_, wall_ms, ops_);
  return wall_ms;
}

PhaseTimer::~PhaseTimer() { Stop(); }

Reporter::Reporter(std::string name) : name_(std::move(name)) {}

PhaseTimer Reporter::Phase(std::string name, double ops) {
  return PhaseTimer(*this, std::move(name), ops);
}

void Reporter::RecordPhase(const std::string& name, double wall_ms,
                           double ops) {
  phases_.push_back({name, wall_ms, ops});
}

void Reporter::Derive(const std::string& metric, double value) {
  derived_.emplace_back(metric, value);
}

double Reporter::PhaseMs(const std::string& name) const {
  for (const PhaseRecord& p : phases_) {
    if (p.name == name) {
      return p.wall_ms;
    }
  }
  NP_ENSURE(false, "unknown bench phase: " + name);
  return 0.0;  // unreachable
}

std::string Reporter::ToJson() const {
  std::ostringstream out;
  // Integers below stream through `out` directly; keep the whole
  // report locale-independent, not just the FormatNumber doubles.
  out.imbue(std::locale::classic());
  out << "{\n";
  out << "  \"bench\": \"" << JsonEscape(name_) << "\",\n";
  out << "  \"scale\": \"" << (QuickScale() ? "quick" : "full") << "\",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"phases\": [\n";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const PhaseRecord& p = phases_[i];
    out << "    {\"name\": \"" << JsonEscape(p.name) << "\", \"wall_ms\": "
        << FormatNumber(p.wall_ms) << ", \"ops\": " << FormatNumber(p.ops)
        << ", \"ops_per_sec\": "
        << FormatNumber(p.wall_ms > 0.0 ? p.ops / (p.wall_ms / 1000.0) : 0.0)
        << "}" << (i + 1 < phases_.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"derived\": {";
  for (std::size_t i = 0; i < derived_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << JsonEscape(derived_[i].first)
        << "\": " << FormatNumber(derived_[i].second);
  }
  out << (derived_.empty() ? "}" : "\n  }") << "\n";
  out << "}\n";
  return out.str();
}

void Reporter::Write() const {
  std::cout << "phase breakdown (" << name_ << "):\n";
  for (const PhaseRecord& p : phases_) {
    std::cout << "  " << p.name << ": " << FormatNumber(p.wall_ms) << " ms";
    if (p.ops > 0.0 && p.wall_ms > 0.0) {
      std::cout << " (" << FormatNumber(p.ops / (p.wall_ms / 1000.0))
                << " ops/sec)";
    }
    std::cout << "\n";
  }
  for (const auto& [metric, value] : derived_) {
    std::cout << "  " << metric << " = " << FormatNumber(value) << "\n";
  }

  std::string dir = ".";
  if (const char* env = std::getenv("NP_BENCH_JSON_DIR")) {
    dir = env;
  }
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream file(path);
  NP_ENSURE(file.good(), "cannot open bench report for writing: " + path);
  file << ToJson();
  std::cout << "report: " << path << "\n";
}

}  // namespace np::bench
