#include "matrix/faulty_space.h"

#include "util/error.h"
#include "util/rng.h"

namespace np::matrix {

void ValidateLossRate(double loss_rate) {
  NP_ENSURE(loss_rate >= 0.0 && loss_rate < 1.0,
            "FaultySpace loss_rate must be in [0, 1)");
}

FaultySpace::FaultySpace(const core::LatencySpace& inner, double loss_rate,
                         std::uint64_t seed,
                         const std::unordered_set<NodeId>* crashed)
    : inner_(&inner),
      loss_rate_(loss_rate),
      stream_(seed),
      crashed_(crashed) {
  ValidateLossRate(loss_rate);
}

LatencyMs FaultySpace::Latency(NodeId a, NodeId b) const {
  // A crashed endpoint never answers, regardless of loss rate; checked
  // first so crash-only instances (loss_rate == 0) stay read-only and
  // shareable across query threads.
  if (crashed_ != nullptr && !crashed_->empty() &&
      (crashed_->count(a) != 0 || crashed_->count(b) != 0)) {
    return kLostProbeMs;
  }
  // a == b is a self-measurement (no network), exempt from loss like it
  // is exempt from NoisySpace jitter.
  if (loss_rate_ <= 0.0 || a == b) {
    return inner_->Latency(a, b);
  }
  if (util::MixToUnit(stream_.Next(a, b)) < loss_rate_) {
    return kLostProbeMs;
  }
  return inner_->Latency(a, b);
}

}  // namespace np::matrix
