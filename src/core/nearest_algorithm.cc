#include "core/nearest_algorithm.h"

#include <algorithm>

#include "core/probe_counter.h"
#include "util/contract.h"
#include "util/error.h"

namespace np::core {
namespace {

/// Fresh random picks a degraded RandomNearest query tries before
/// reporting failure.
constexpr int kMaxRandomDraws = 8;

}  // namespace

void NearestPeerAlgorithm::AddMember(NodeId node, util::Rng& rng) {
  (void)node;
  (void)rng;
  NP_ENSURE(false, "this algorithm does not support churn; rebuild instead");
}

void NearestPeerAlgorithm::RemoveMember(NodeId node) {
  (void)node;
  NP_ENSURE(false, "this algorithm does not support churn; rebuild instead");
}

std::unique_ptr<NearestPeerAlgorithm> NearestPeerAlgorithm::Clone() const {
  NP_ENSURE(false,
            "this algorithm does not support snapshot clones; "
            "check SupportsSnapshot() first");
  return nullptr;
}

void NearestPeerAlgorithm::ParallelBuild(const LatencySpace& space,
                                         std::vector<NodeId> members,
                                         util::Rng& rng, int num_threads) {
  // Base fallback: no parallel construction path; the thread budget is
  // accepted (and ignored) so callers can pass every algorithm through
  // the same entry point.
  (void)num_threads;
  Build(space, std::move(members), rng);
}

QueryResult NearestPeerAlgorithm::Query(NodeId target,
                                        const MeteredSpace& metered,
                                        util::Rng& rng) {
  NP_REPORT_AFFECTING();
  const std::uint64_t before = metered.probes();
  QueryResult result = FindNearest(target, metered, rng);
  if (probe_counter_ != nullptr) {
    probe_counter_->AddQueries(1);
    probe_counter_->AddQueryProbes(metered.probes() - before);
  }
  return result;
}

void OracleNearest::Build(const LatencySpace& space,
                          std::vector<NodeId> members, util::Rng& rng) {
  (void)rng;
  NP_ENSURE(!members.empty(), "oracle requires at least one member");
  space_ = &space;
  members_.Reset(std::move(members));
}

QueryResult OracleNearest::FindNearest(NodeId target,
                                       const MeteredSpace& metered,
                                       util::Rng& rng) {
  (void)rng;
  NP_ENSURE(space_ != nullptr, "Build must be called before FindNearest");
  QueryResult result;
  const ProbePolicy& policy = probe_policy();
  for (NodeId member : members_.members()) {
    const auto latency = policy.Probe(metered, member, target);
    ++result.probes;
    if (!latency) {
      continue;  // unreachable member: skip, keep scanning
    }
    if (*latency < result.found_latency_ms ||
        (*latency == result.found_latency_ms && member < result.found)) {
      result.found_latency_ms = *latency;
      result.found = member;
    }
  }
  result.hops = 0;
  return result;
}

// Membership is the only overlay state of the two baselines, so churn
// is pure MemberIndex bookkeeping: O(1) join and leave, zero probes —
// the zero-maintenance floor the structured overlays are compared
// against (double-add / double-remove still fail loudly, inside the
// index).

void OracleNearest::AddMember(NodeId node, util::Rng& rng) {
  (void)rng;
  NP_ENSURE(space_ != nullptr, "Build must run before AddMember");
  members_.Add(node);
}

void OracleNearest::RemoveMember(NodeId node) {
  NP_ENSURE(members_.size() > 1, "cannot remove the last member");
  members_.Remove(node);
}

void RandomNearest::AddMember(NodeId node, util::Rng& rng) {
  (void)rng;
  members_.Add(node);
}

void RandomNearest::RemoveMember(NodeId node) {
  NP_ENSURE(members_.size() > 1, "cannot remove the last member");
  members_.Remove(node);
}

void RandomNearest::Build(const LatencySpace& space,
                          std::vector<NodeId> members, util::Rng& rng) {
  (void)space;
  (void)rng;
  NP_ENSURE(!members.empty(), "random requires at least one member");
  members_.Reset(std::move(members));
}

QueryResult RandomNearest::FindNearest(NodeId target,
                                       const MeteredSpace& metered,
                                       util::Rng& rng) {
  QueryResult result;
  const ProbePolicy& policy = probe_policy();
  // Under faults the single pick may be dead; redraw a few times before
  // giving up (a real client would just ask another random peer). At
  // zero loss the first draw always succeeds, so the rng consumption
  // and probe count match the pre-fault behavior exactly.
  for (int draw = 0; draw < kMaxRandomDraws; ++draw) {
    const NodeId pick = members_.at(rng.Index(members_.size()));
    ++result.probes;
    const auto latency = policy.Probe(metered, pick, target);
    if (latency) {
      result.found = pick;
      result.found_latency_ms = *latency;
      break;
    }
  }
  result.hops = 0;
  return result;
}

NodeId TrueClosestMember(const LatencySpace& space,
                         const std::vector<NodeId>& members, NodeId target) {
  NP_ENSURE(!members.empty(), "no members");
  LatencyMs latency = kInfiniteLatency;
  return space.ClosestOf(target, members, &latency);
}

}  // namespace np::core
