#include "mech/hybrid.h"

#include <algorithm>

#include "util/error.h"

namespace np::mech {

const char* MechanismName(Mechanism mechanism) {
  switch (mechanism) {
    case Mechanism::kUcl:
      return "ucl";
    case Mechanism::kPrefix:
      return "prefix";
    case Mechanism::kMulticast:
      return "multicast";
    case Mechanism::kRegistry:
      return "registry";
  }
  return "unknown";
}

HybridNearest::HybridNearest(
    const net::Topology& topology, Mechanism mechanism,
    std::unique_ptr<core::NearestPeerAlgorithm> fallback)
    : topology_(&topology),
      mechanism_(mechanism),
      fallback_(std::move(fallback)) {}

HybridNearest::HybridNearest(const HybridNearest& other)
    : topology_(other.topology_),
      mechanism_(other.mechanism_),
      map_(other.map_),
      members_(other.members_),
      churn_rng_(other.churn_rng_),
      queries_(other.queries_.load(std::memory_order_relaxed)),
      mechanism_hits_(
          other.mechanism_hits_.load(std::memory_order_relaxed)) {
  if (other.fallback_ != nullptr) {
    fallback_ = other.fallback_->Clone();
  }
  if (other.ucl_ != nullptr) {
    ucl_ = std::make_unique<UclDirectory>(*other.ucl_, map_);
  }
  if (other.prefix_ != nullptr) {
    prefix_ = std::make_unique<PrefixDirectory>(*other.prefix_, map_);
  }
  if (other.multicast_ != nullptr) {
    multicast_ = std::make_unique<MulticastBootstrap>(*other.multicast_);
  }
  if (other.registry_ != nullptr) {
    registry_ = std::make_unique<EndNetworkRegistry>(*other.registry_);
  }
}

std::unique_ptr<core::NearestPeerAlgorithm> HybridNearest::Clone() const {
  NP_ENSURE(SupportsSnapshot(),
            "hybrid fallback does not support snapshot clones");
  return core::DetachedClone(std::make_unique<HybridNearest>(*this));
}

std::string HybridNearest::name() const {
  std::string n = std::string("hybrid-") + MechanismName(mechanism_);
  if (fallback_ != nullptr) {
    n += "+" + fallback_->name();
  }
  return n;
}

void HybridNearest::Build(const core::LatencySpace& space,
                          std::vector<NodeId> members, util::Rng& rng) {
  NP_ENSURE(!members.empty(), "hybrid requires members");
  members_.Reset(std::move(members));
  queries_ = 0;
  mechanism_hits_ = 0;
  churn_rng_ = util::Rng(rng());

  map_ = PerfectMap();

  ucl_.reset();
  prefix_.reset();
  multicast_.reset();
  registry_.reset();
  switch (mechanism_) {
    case Mechanism::kUcl:
      ucl_ = std::make_unique<UclDirectory>(map_);
      for (NodeId peer : members_.members()) {
        ucl_->RegisterPeer(*topology_, peer, rng);
      }
      break;
    case Mechanism::kPrefix:
      prefix_ = std::make_unique<PrefixDirectory>(map_, kPrefixBits);
      for (NodeId peer : members_.members()) {
        prefix_->RegisterPeer(*topology_, peer, rng);
      }
      break;
    case Mechanism::kMulticast:
      multicast_ = std::make_unique<MulticastBootstrap>(*topology_);
      for (NodeId peer : members_.members()) {
        multicast_->RegisterPeer(peer);
      }
      break;
    case Mechanism::kRegistry:
      registry_ = std::make_unique<EndNetworkRegistry>(
          *topology_, kRegistryDeployProb,
          kRegistryLargeNetworkHosts, rng);
      for (NodeId peer : members_.members()) {
        registry_->RegisterPeer(peer);
      }
      break;
  }

  if (fallback_ != nullptr) {
    fallback_->Build(space, members_.members(), rng);
  }
}

void HybridNearest::AddMember(NodeId node, util::Rng& rng) {
  NP_ENSURE(!members_.empty(), "Build must run before AddMember");
  members_.Add(node);  // throws on double-add
  switch (mechanism_) {
    case Mechanism::kUcl:
      ucl_->RegisterPeer(*topology_, node, rng);
      break;
    case Mechanism::kPrefix:
      prefix_->RegisterPeer(*topology_, node, rng);
      break;
    case Mechanism::kMulticast:
      multicast_->RegisterPeer(node);
      break;
    case Mechanism::kRegistry:
      registry_->RegisterPeer(node);
      break;
  }
  if (fallback_ != nullptr) {
    fallback_->AddMember(node, rng);
  }
}

void HybridNearest::RemoveMember(NodeId node) {
  NP_ENSURE(!members_.empty(), "Build must run before RemoveMember");
  NP_ENSURE(members_.size() > 1, "cannot remove the last member");
  members_.Remove(node);  // throws when not a member
  switch (mechanism_) {
    case Mechanism::kUcl:
      ucl_->UnregisterPeer(*topology_, node, churn_rng_);
      break;
    case Mechanism::kPrefix:
      prefix_->UnregisterPeer(*topology_, node, churn_rng_);
      break;
    case Mechanism::kMulticast:
      multicast_->UnregisterPeer(node);
      break;
    case Mechanism::kRegistry:
      registry_->UnregisterPeer(node);
      break;
  }
  if (fallback_ != nullptr) {
    fallback_->RemoveMember(node);
  }
}

core::QueryResult HybridNearest::FindNearest(NodeId target,
                                             const core::MeteredSpace& metered,
                                             util::Rng& rng) {
  queries_.fetch_add(1, std::memory_order_relaxed);

  // Collect mechanism candidates, cheapest-estimate first for UCL.
  std::vector<NodeId> candidates;
  switch (mechanism_) {
    case Mechanism::kUcl: {
      NP_ENSURE(ucl_ != nullptr, "Build must run before FindNearest");
      for (const auto& c : ucl_->Candidates(*topology_, target, rng,
                                            kUclMaxEstimateMs)) {
        candidates.push_back(c.peer);
      }
      break;
    }
    case Mechanism::kPrefix:
      NP_ENSURE(prefix_ != nullptr, "Build must run before FindNearest");
      candidates = prefix_->Candidates(*topology_, target, rng);
      break;
    case Mechanism::kMulticast:
      NP_ENSURE(multicast_ != nullptr, "Build must run before FindNearest");
      candidates = multicast_->Search(target);
      break;
    case Mechanism::kRegistry:
      NP_ENSURE(registry_ != nullptr, "Build must run before FindNearest");
      candidates = registry_->Query(target);
      break;
  }
  if (static_cast<int>(candidates.size()) > kMaxProbeCandidates) {
    candidates.resize(static_cast<std::size_t>(kMaxProbeCandidates));
  }

  core::QueryResult result;
  const core::ProbePolicy& policy = probe_policy();
  for (NodeId candidate : candidates) {
    const auto measured = policy.Probe(metered, candidate, target);
    if (!measured) {
      continue;  // unreachable candidate: route around it
    }
    const LatencyMs d = *measured;
    if (d < result.found_latency_ms ||
        (d == result.found_latency_ms && candidate < result.found)) {
      result.found_latency_ms = d;
      result.found = candidate;
    }
  }

  if (result.found != kInvalidNode &&
      result.found_latency_ms <= kAcceptThresholdMs) {
    mechanism_hits_.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  if (fallback_ == nullptr) {
    if (result.found == kInvalidNode) {
      // Mechanism produced nothing: return a random member so the
      // query still has an answer (probing it once; under faults the
      // draw retries a few times before the query gives up).
      for (int draw = 0; draw <= core::kStartRedraws; ++draw) {
        const NodeId pick = members_.at(rng.Index(members_.size()));
        const auto measured = policy.Probe(metered, pick, target);
        if (measured) {
          result.found = pick;
          result.found_latency_ms = *measured;
          break;
        }
      }
    }
    return result;
  }

  core::QueryResult fb = fallback_->FindNearest(target, metered, rng);
  if (result.found != kInvalidNode &&
      result.found_latency_ms < fb.found_latency_ms) {
    fb.found = result.found;
    fb.found_latency_ms = result.found_latency_ms;
  }
  return fb;
}

void HybridNearest::AttachProbePolicy(const core::ProbePolicy* policy) {
  core::NearestPeerAlgorithm::AttachProbePolicy(policy);
  if (fallback_ != nullptr) {
    fallback_->AttachProbePolicy(policy);
  }
}

double HybridNearest::mechanism_hit_rate() const {
  const std::uint64_t queries = queries_.load(std::memory_order_relaxed);
  const std::uint64_t hits =
      mechanism_hits_.load(std::memory_order_relaxed);
  return queries == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(queries);
}

}  // namespace np::mech
