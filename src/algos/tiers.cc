#include "algos/tiers.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/contract.h"
#include "util/error.h"

namespace np::algos {

TiersNearest::TiersNearest(TiersConfig config) : config_(config) {
  NP_ENSURE(config_.base_radius_ms > 0.0, "positive base radius required");
}

double TiersNearest::RadiusAt(int level) const {
  return config_.base_radius_ms * std::pow(kRadiusGrowth, level);
}

void TiersNearest::Build(const core::LatencySpace& space,
                         std::vector<NodeId> members, util::Rng& rng) {
  NP_ENSURE(!members.empty(), "requires members");
  space_ = &space;
  members_.Reset(std::move(members));
  levels_.clear();

  // A lost probe reads as kInfiniteLatency: the rep looks out of
  // radius, so the member founds its own cluster — exactly how a real
  // greedy cover behaves when an existing rep fails to answer.
  const core::ProbePolicy& policy = probe_policy();
  const auto probe_or_inf = [&policy](const core::LatencySpace& s, NodeId a,
                                      NodeId b) {
    const auto measured = policy.Probe(s, a, b);
    return measured ? *measured : kInfiniteLatency;
  };

  std::vector<NodeId> level_members = members_.members();
  double radius = config_.base_radius_ms;
  for (int level = 0; level < kMaxLevels; ++level) {
    Level built;
    std::vector<NodeId> reps;
    // Greedy cover in random order: first member within `radius` of an
    // existing representative joins it, otherwise it becomes one. A
    // member measures every representative that exists when it is
    // processed, full clusters included (a joiner cannot know a cluster
    // is full without talking to it).
    rng.Shuffle(level_members);
    for (const NodeId m : level_members) {
      NodeId best_rep = kInvalidNode;
      LatencyMs best_distance = radius;
      for (const NodeId rep : reps) {
        // `m` rides second so row-caching backends reuse its row.
        const LatencyMs d = probe_or_inf(space, rep, m);
        if (static_cast<int>(built.clusters[rep].size()) >= kMaxClusterSize) {
          continue;  // full cluster stops absorbing
        }
        if (d <= best_distance) {
          best_distance = d;
          best_rep = rep;
        }
      }
      if (best_rep == kInvalidNode) {
        reps.push_back(m);
        built.clusters[m].push_back(m);
        built.rep_of[m] = m;
      } else {
        built.clusters[best_rep].push_back(m);
        built.rep_of[m] = best_rep;
      }
    }
    levels_.push_back(std::move(built));
    if (static_cast<int>(reps.size()) <= kTopClusterMax ||
        reps.size() == level_members.size()) {
      top_reps_ = std::move(reps);
      return;
    }
    level_members = std::move(reps);
    radius *= kRadiusGrowth;
  }
  // Ran out of levels: whatever remains is the top cluster.
  top_reps_.clear();
  NP_ORDER_INSENSITIVE("reps collected then sorted on the line below");
  for (const auto& [rep, cluster] : levels_.back().clusters) {
    top_reps_.push_back(rep);
  }
  std::sort(top_reps_.begin(), top_reps_.end());
}

void TiersNearest::AddMember(NodeId node, util::Rng& rng) {
  (void)rng;
  NP_ENSURE(space_ != nullptr, "Build must run before AddMember");
  members_.Add(node);  // throws on double-add

  // The scheme's join protocol: descend from the top cluster, probing
  // every visited cluster's members. The probes go through the space
  // supplied to Build — under the scenario engine that is the metered
  // maintenance view, so the descent is billed.
  const int num_levels = static_cast<int>(levels_.size());
  const core::ProbePolicy& policy = probe_policy();
  std::vector<std::vector<std::pair<LatencyMs, NodeId>>> probed(
      static_cast<std::size_t>(num_levels));
  std::vector<NodeId> candidates = top_reps_;
  for (int level = num_levels - 1; level >= 0; --level) {
    auto& at_level = probed[static_cast<std::size_t>(level)];
    at_level.reserve(candidates.size());
    NodeId best = kInvalidNode;
    LatencyMs best_distance = kInfiniteLatency;
    for (const NodeId candidate : candidates) {
      const auto measured = policy.Probe(*space_, candidate, node);
      if (!measured) {
        continue;  // unreachable rep: not an attachment candidate
      }
      const LatencyMs d = *measured;
      at_level.push_back({d, candidate});
      if (d < best_distance || (d == best_distance && candidate < best)) {
        best_distance = d;
        best = candidate;
      }
    }
    if (best == kInvalidNode) {
      break;  // every rep at this level unreachable: stop the descent
    }
    if (level > 0) {
      candidates =
          levels_[static_cast<std::size_t>(level)].clusters.at(best);
    }
  }

  // Attach at the lowest level whose nearest eligible representative
  // (within the level radius, cluster not full) accepts the joiner.
  int attach_level = num_levels;
  NodeId attach_rep = kInvalidNode;
  for (int level = 0; level < num_levels && attach_rep == kInvalidNode;
       ++level) {
    Level& at_level = levels_[static_cast<std::size_t>(level)];
    LatencyMs best_distance = RadiusAt(level);
    for (const auto& [d, candidate] : probed[static_cast<std::size_t>(level)]) {
      if (static_cast<int>(at_level.clusters.at(candidate).size()) >=
          kMaxClusterSize) {
        continue;
      }
      if (d < best_distance ||
          (d == best_distance &&
           (attach_rep == kInvalidNode || candidate < attach_rep))) {
        best_distance = d;
        attach_rep = candidate;
        attach_level = level;
      }
    }
  }

  // Fresh representative of every level below the attachment point.
  for (int level = 0; level < attach_level && level < num_levels; ++level) {
    Level& at_level = levels_[static_cast<std::size_t>(level)];
    at_level.clusters[node] = {node};
    at_level.rep_of[node] = node;
  }
  if (attach_rep != kInvalidNode) {
    Level& at_level = levels_[static_cast<std::size_t>(attach_level)];
    at_level.clusters.at(attach_rep).push_back(node);
    at_level.rep_of[node] = attach_rep;
  } else {
    // No level accepted: the joiner leads a singleton chain all the
    // way up and enters the top cluster (which may grow past
    // kTopClusterMax under churn — incremental repair trades that
    // drift against the full-rebuild bill).
    top_reps_.push_back(node);
  }
}

NodeId TiersNearest::ElectRep(const std::vector<NodeId>& cluster) const {
  NP_ENSURE(!cluster.empty(), "cannot elect from an empty cluster");
  if (cluster.size() == 1) {
    return cluster[0];
  }
  // Every pair measures once (billed through the build-time space);
  // the winner minimizes the summed latency to the rest. A lost pair
  // probe penalizes both endpoints by a fixed large charge: a node
  // that keeps failing its cluster-mates cannot win the election, but
  // one lost probe among many finite ones stays survivable.
  constexpr double kLostPairPenaltyMs = 1e7;
  const core::ProbePolicy& policy = probe_policy();
  std::vector<double> score(cluster.size(), 0.0);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    for (std::size_t j = i + 1; j < cluster.size(); ++j) {
      const auto measured =
          policy.Probe(*space_, cluster[i], cluster[j]);
      const double d = measured ? *measured : kLostPairPenaltyMs;
      score[i] += d;
      score[j] += d;
    }
  }
  std::size_t winner = 0;
  for (std::size_t i = 1; i < cluster.size(); ++i) {
    if (score[i] < score[winner] ||
        (score[i] == score[winner] && cluster[i] < cluster[winner])) {
      winner = i;
    }
  }
  return cluster[winner];
}

void TiersNearest::RemoveMember(NodeId node) {
  NP_ENSURE(space_ != nullptr, "Build must run before RemoveMember");
  NP_ENSURE(members_.size() > 1, "cannot remove the last member");
  members_.Remove(node);  // throws when not a member; O(1)

  // Walk up the levels the node occupies. Removal mode drops it; once
  // a re-election picks a replacement, substitution mode hands the
  // replacement the node's positions at every higher tier.
  NodeId replacement = kInvalidNode;
  const int num_levels = static_cast<int>(levels_.size());
  for (int level = 0; level < num_levels; ++level) {
    Level& at_level = levels_[static_cast<std::size_t>(level)];
    const auto rit = at_level.rep_of.find(node);
    if (rit == at_level.rep_of.end()) {
      break;  // the node does not reach this level
    }
    const NodeId rep = rit->second;
    const bool led_cluster = rep == node;
    at_level.rep_of.erase(rit);
    const auto cit = at_level.clusters.find(rep);
    NP_ENSURE(cit != at_level.clusters.end(), "member's rep has no cluster");
    std::vector<NodeId>& cluster = cit->second;

    if (replacement == kInvalidNode) {
      const auto pos = std::find(cluster.begin(), cluster.end(), node);
      NP_ENSURE(pos != cluster.end(), "member missing from its cluster");
      cluster.erase(pos);
      if (!led_cluster) {
        break;  // plain member: nothing above changes
      }
      if (cluster.empty()) {
        // A singleton cluster dissolves with its rep; the node also
        // sat one level up, so keep removing there.
        at_level.clusters.erase(cit);
        if (level == num_levels - 1) {
          top_reps_.erase(
              std::find(top_reps_.begin(), top_reps_.end(), node));
        }
        continue;
      }
      // Re-election within the orphaned cluster, billed pair probes.
      replacement = ElectRep(cluster);
    } else {
      // Substitution: the replacement takes the node's slot here.
      std::replace(cluster.begin(), cluster.end(), node, replacement);
      if (!led_cluster) {
        at_level.rep_of[replacement] = rep;
        break;
      }
    }

    // The node led this cluster: re-key it to the replacement, which
    // then inherits the node's membership one level up.
    std::vector<NodeId> moved = std::move(cit->second);
    at_level.clusters.erase(cit);
    for (const NodeId m : moved) {
      at_level.rep_of[m] = replacement;
    }
    at_level.clusters[replacement] = std::move(moved);
    if (level == num_levels - 1) {
      std::replace(top_reps_.begin(), top_reps_.end(), node, replacement);
    }
  }
}

void TiersNearest::CheckInvariants() const {
  NP_ENSURE(space_ != nullptr, "Build must run before CheckInvariants");
  // Every member appears in exactly one bottom cluster.
  std::vector<NodeId> bottom = LevelMembers(0);
  std::vector<NodeId> expected = members_.members();
  std::sort(expected.begin(), expected.end());
  NP_ENSURE(bottom == expected,
            "bottom-level clusters must partition the membership");
  for (int level = 0; level < static_cast<int>(levels_.size()); ++level) {
    const Level& at_level = levels_[static_cast<std::size_t>(level)];
    std::size_t clustered = 0;
    for (const auto& [rep, cluster] : at_level.clusters) {
      NP_ENSURE(!cluster.empty(), "empty cluster left behind");
      NP_ENSURE(static_cast<int>(cluster.size()) <= kMaxClusterSize,
                "cluster exceeds kMaxClusterSize");
      NP_ENSURE(std::find(cluster.begin(), cluster.end(), rep) !=
                    cluster.end(),
                "rep must sit in its own cluster");
      clustered += cluster.size();
      for (const NodeId m : cluster) {
        const auto it = at_level.rep_of.find(m);
        NP_ENSURE(it != at_level.rep_of.end() && it->second == rep,
                  "member->rep index disagrees with the cluster lists");
      }
      // A rep is a member one level up (or of the top set).
      if (level + 1 < static_cast<int>(levels_.size())) {
        const Level& above = levels_[static_cast<std::size_t>(level) + 1];
        NP_ENSURE(above.rep_of.find(rep) != above.rep_of.end(),
                  "rep missing from the level above");
      } else {
        NP_ENSURE(std::find(top_reps_.begin(), top_reps_.end(), rep) !=
                      top_reps_.end(),
                  "top-level rep missing from the top cluster");
      }
    }
    NP_ENSURE(clustered == at_level.rep_of.size(),
              "member->rep index size disagrees with the cluster lists");
  }
  NP_ENSURE(top_reps_.size() == levels_.back().clusters.size(),
            "top cluster must list exactly the top-level reps");
}

const std::vector<NodeId>& TiersNearest::ClusterOf(int level,
                                                   NodeId rep) const {
  NP_ENSURE(level >= 0 && level < static_cast<int>(levels_.size()),
            "level out of range");
  const auto& clusters = levels_[static_cast<std::size_t>(level)].clusters;
  const auto it = clusters.find(rep);
  NP_ENSURE(it != clusters.end(), "not a representative at this level");
  return it->second;
}

std::vector<NodeId> TiersNearest::LevelMembers(int level) const {
  NP_ENSURE(level >= 0 && level < static_cast<int>(levels_.size()),
            "level out of range");
  std::vector<NodeId> out;
  for (const auto& [rep, cluster] :
       levels_[static_cast<std::size_t>(level)].clusters) {
    out.insert(out.end(), cluster.begin(), cluster.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

core::QueryResult TiersNearest::FindNearest(NodeId target,
                                            const core::MeteredSpace& metered,
                                            util::Rng& rng) {
  (void)rng;
  NP_ENSURE(space_ != nullptr, "Build must run before FindNearest");
  core::QueryResult result;
  const core::ProbePolicy& policy = probe_policy();

  // Probe the top cluster, then descend through the chosen rep's
  // clusters level by level. An unreachable rep is skipped; if a whole
  // level fails the descent stops at the best answer found so far
  // (kInvalidNode when even the top cluster was silent).
  const std::vector<NodeId>* candidates = &top_reps_;
  for (int level = static_cast<int>(levels_.size()) - 1; level >= 0;
       --level) {
    NodeId best = kInvalidNode;
    LatencyMs best_distance = kInfiniteLatency;
    for (const NodeId candidate : *candidates) {
      const auto measured = policy.Probe(metered, candidate, target);
      if (!measured) {
        continue;
      }
      const LatencyMs d = *measured;
      if (d < best_distance ||
          (d == best_distance && candidate < best)) {
        best_distance = d;
        best = candidate;
      }
    }
    if (best == kInvalidNode) {
      return result;  // whole level unreachable: stop here
    }
    if (best_distance < result.found_latency_ms ||
        (best_distance == result.found_latency_ms &&
         best < result.found)) {
      result.found_latency_ms = best_distance;
      result.found = best;
    }
    ++result.hops;
    candidates = &ClusterOf(level, best);
  }
  // Bottom cluster: probe its members for the final answer.
  for (const NodeId candidate : *candidates) {
    const auto measured = policy.Probe(metered, candidate, target);
    if (!measured) {
      continue;
    }
    const LatencyMs d = *measured;
    if (d < result.found_latency_ms ||
        (d == result.found_latency_ms && candidate < result.found)) {
      result.found_latency_ms = d;
      result.found = candidate;
    }
  }
  return result;
}

}  // namespace np::algos
