#include "core/probe_policy.h"

#include <algorithm>
#include <cmath>

#include "util/contract.h"
#include "util/error.h"

namespace np::core {

void ValidateSuspicionConfig(const SuspicionConfig& config) {
  NP_ENSURE(config.strikes >= 0, "SuspicionConfig strikes must be >= 0");
  NP_ENSURE(config.probation_epochs >= 1,
            "SuspicionConfig probation_epochs must be >= 1");
  NP_ENSURE(config.probation_backoff >= 1.0,
            "SuspicionConfig probation_backoff must be >= 1");
}

void ValidateMaxAttempts(int max_attempts) {
  NP_ENSURE(max_attempts >= 1, "ProbePolicy needs at least one attempt");
}

SuspicionLedger::SuspicionLedger(SuspicionConfig config) : config_(config) {
  ValidateSuspicionConfig(config);
}

void SuspicionLedger::RecordProbe(NodeId peer, bool ok) {
  // recording_ is re-checked here (not just at the Probe call site) so
  // a stray feed outside a serial maintenance window is inert rather
  // than a data race on the strike counts.
  if (!recording_ || !config_.Enabled() || quarantine_.count(peer) != 0) {
    return;
  }
  if (ok) {
    strikes_.erase(peer);
    return;
  }
  const int count = ++strikes_[peer];
  if (count >= config_.strikes) {
    strikes_.erase(peer);
    quarantine_.emplace(
        peer, Quarantine{0, epoch_ + config_.probation_epochs});
  }
}

std::vector<NodeId> SuspicionLedger::ProbationDue(int epoch) const {
  std::vector<NodeId> due;
  NP_ORDER_INSENSITIVE("collected then sorted before return");
  for (const auto& [peer, q] : quarantine_) {
    if (q.next_epoch <= epoch) {
      due.push_back(peer);
    }
  }
  std::sort(due.begin(), due.end());
  return due;
}

bool SuspicionLedger::ResolveProbation(NodeId peer, int epoch, bool ok) {
  auto it = quarantine_.find(peer);
  NP_ENSURE(it != quarantine_.end(),
            "ResolveProbation on a peer that is not quarantined");
  if (ok) {
    quarantine_.erase(it);
    return true;
  }
  it->second.level += 1;
  // Backed-off re-probe interval: probation_epochs grown by
  // probation_backoff per failed probation, in whole epochs (pure
  // function of the level, so replay-identical).
  const double interval =
      static_cast<double>(config_.probation_epochs) *
      std::pow(config_.probation_backoff, it->second.level);
  it->second.next_epoch =
      epoch + std::max(1, static_cast<int>(std::lround(interval)));
  return false;
}

void SuspicionLedger::PruneTo(const std::unordered_set<NodeId>& members) {
  for (auto it = strikes_.begin(); it != strikes_.end();) {
    it = members.count(it->first) == 0 ? strikes_.erase(it) : std::next(it);
  }
  for (auto it = quarantine_.begin(); it != quarantine_.end();) {
    it = members.count(it->first) == 0 ? quarantine_.erase(it)
                                       : std::next(it);
  }
}

ProbePolicy::ProbePolicy(int max_attempts, ProbeCounter* counter,
                         SuspicionLedger* suspicion)
    : max_attempts_(max_attempts), counter_(counter), suspicion_(suspicion) {
  ValidateMaxAttempts(max_attempts);
}

std::optional<LatencyMs> ProbePolicy::Attempt(const LatencySpace& space,
                                              NodeId node,
                                              NodeId target) const {
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    const LatencyMs measured = space.Latency(node, target);
    if (!matrix::ProbeLost(measured)) {
      return measured;
    }
    if (counter_ != nullptr) {
      counter_->AddFailedProbes(1);
      if (attempt + 1 < max_attempts_) {
        counter_->AddRetries(1);
      }
    }
  }
  return std::nullopt;
}

std::optional<LatencyMs> ProbePolicy::Probe(const LatencySpace& space,
                                            NodeId node,
                                            NodeId target) const {
  if (suspicion_ != nullptr && suspicion_->Quarantined(node)) {
    // Quarantined peers are not probed at all: no wire traffic, no
    // retry burn — the graceful-degradation payoff of the detector.
    if (counter_ != nullptr) {
      counter_->AddSuspicionSkips(1);
    }
    return std::nullopt;
  }
  const std::optional<LatencyMs> result = Attempt(space, node, target);
  if (suspicion_ != nullptr && suspicion_->recording()) {
    suspicion_->RecordProbe(node, result.has_value());
  }
  return result;
}

std::optional<LatencyMs> ProbePolicy::ProbationProbe(const LatencySpace& space,
                                                     NodeId node,
                                                     NodeId target) const {
  if (counter_ != nullptr) {
    counter_->AddProbationProbes(1);
  }
  return Attempt(space, node, target);
}

const ProbePolicy& ProbePolicy::Default() {
  static const ProbePolicy kDefault;
  return kDefault;
}

}  // namespace np::core
