#include "algos/beaconing.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.h"
#include "util/parallel.h"

namespace np::algos {

BeaconingNearest::BeaconingNearest(BeaconingConfig config)
    : config_(config) {
  NP_ENSURE(config_.max_probe_candidates >= 1,
            "must probe at least one candidate");
}

void BeaconingNearest::Build(const core::LatencySpace& space,
                             std::vector<NodeId> members, util::Rng& rng) {
  BuildImpl(space, std::move(members), rng, 1);
}

void BeaconingNearest::ParallelBuild(const core::LatencySpace& space,
                                     std::vector<NodeId> members,
                                     util::Rng& rng, int num_threads) {
  BuildImpl(space, std::move(members), rng, num_threads);
}

void BeaconingNearest::BuildImpl(const core::LatencySpace& space,
                                 std::vector<NodeId> members, util::Rng& rng,
                                 int num_threads) {
  NP_ENSURE(!members.empty(), "requires members");
  space_ = &space;
  members_.Reset(std::move(members));
  const std::vector<NodeId>& ids = members_.members();

  const std::size_t k = std::min<std::size_t>(
      static_cast<std::size_t>(kNumBeacons), ids.size());
  beacons_.clear();
  for (std::size_t pick : rng.Sample(ids.size(), k)) {
    beacons_.push_back(ids[pick]);
  }

  // Column-parallel fill: iteration m writes slot m of every beacon
  // row, no randomness — bit-identical for any thread count. Beacons
  // ride second so row-caching backends keep their rows hot. A lost
  // measurement is stored as kInfiniteLatency: the member simply never
  // looks close to that beacon (and can never win a vote through it).
  const core::ProbePolicy& policy = probe_policy();
  beacon_latency_.assign(beacons_.size(),
                         std::vector<LatencyMs>(ids.size(), 0.0));
  util::ParallelFor(0, ids.size(), num_threads, [&](std::size_t m) {
    for (std::size_t b = 0; b < beacons_.size(); ++b) {
      const auto measured = policy.Probe(space, ids[m], beacons_[b]);
      beacon_latency_[b][m] = measured ? *measured : kInfiniteLatency;
    }
  });
}

void BeaconingNearest::MeasureBeaconRow(std::size_t b) {
  const core::ProbePolicy& policy = probe_policy();
  const std::vector<NodeId>& ids = members_.members();
  for (std::size_t m = 0; m < ids.size(); ++m) {
    const auto measured = policy.Probe(*space_, ids[m], beacons_[b]);
    beacon_latency_[b][m] = measured ? *measured : kInfiniteLatency;
  }
}

void BeaconingNearest::AddMember(NodeId node, util::Rng& rng) {
  (void)rng;
  NP_ENSURE(space_ != nullptr, "Build must run before AddMember");
  members_.Add(node);  // throws on double-add
  const core::ProbePolicy& policy = probe_policy();
  // The join protocol: every beacon measures the joiner once.
  for (std::size_t b = 0; b < beacons_.size(); ++b) {
    const auto measured = policy.Probe(*space_, node, beacons_[b]);
    beacon_latency_[b].push_back(measured ? *measured : kInfiniteLatency);
  }
}

void BeaconingNearest::RemoveMember(NodeId node) {
  NP_ENSURE(members_.size() > 1, "cannot remove the last member");
  const auto removed = members_.Remove(node);  // throws when not a member

  // Drop the leaver's column (swap-with-last, mirroring the index).
  for (auto& row : beacon_latency_) {
    if (removed.swapped) {
      row[removed.position] = row.back();
    }
    row.pop_back();
  }

  // A departing beacon takes its whole latency map with it. Promote
  // the lowest-id member that is not already a beacon and have it
  // measure everyone — the expensive path (the O(overlay) candidate
  // scan rides along with O(overlay) billed row probes). With no
  // candidate left the beacon set just shrinks.
  const auto beacon_it = std::find(beacons_.begin(), beacons_.end(), node);
  if (beacon_it == beacons_.end()) {
    return;
  }
  const std::size_t beacon_pos =
      static_cast<std::size_t>(beacon_it - beacons_.begin());
  NodeId replacement = kInvalidNode;
  for (const NodeId candidate : members_.members()) {
    if (std::find(beacons_.begin(), beacons_.end(), candidate) !=
        beacons_.end()) {
      continue;
    }
    if (replacement == kInvalidNode || candidate < replacement) {
      replacement = candidate;
    }
  }
  if (replacement == kInvalidNode) {
    beacons_.erase(beacon_it);
    beacon_latency_.erase(beacon_latency_.begin() +
                          static_cast<std::ptrdiff_t>(beacon_pos));
    return;
  }
  beacons_[beacon_pos] = replacement;
  MeasureBeaconRow(beacon_pos);
}

core::QueryResult BeaconingNearest::FindNearest(
    NodeId target, const core::MeteredSpace& metered, util::Rng& rng) {
  (void)rng;
  NP_ENSURE(!beacons_.empty(), "Build must run before FindNearest");
  core::QueryResult result;
  const core::ProbePolicy& policy = probe_policy();
  const std::vector<NodeId>& ids = members_.members();

  // Each beacon measures the target once. A beacon whose measurement
  // is lost sits the query out entirely: it casts no votes,
  // contributes no deviation, and is not a fallback answer — an
  // explicit ok-flag, because infinity arithmetic would grant a dead
  // beacon spurious votes (|x - inf| <= inf holds).
  std::vector<LatencyMs> beacon_to_target(beacons_.size(), kInfiniteLatency);
  std::vector<char> beacon_ok(beacons_.size(), 0);
  for (std::size_t b = 0; b < beacons_.size(); ++b) {
    const auto measured = policy.Probe(metered, beacons_[b], target);
    if (measured) {
      beacon_to_target[b] = *measured;
      beacon_ok[b] = 1;
    }
  }

  // Nominations: members within the band of the target's latency at
  // each beacon; rank candidates by triangulation score (max absolute
  // deviation across beacons, lower = better estimate).
  const int quorum_votes = std::max(
      1, static_cast<int>(std::ceil(kQuorum *
                                    static_cast<double>(beacons_.size()))));
  std::vector<std::pair<double, NodeId>> candidates;
  for (std::size_t m = 0; m < ids.size(); ++m) {
    if (ids[m] == target) {
      continue;
    }
    int votes = 0;
    double worst_deviation = 0.0;
    for (std::size_t b = 0; b < beacons_.size(); ++b) {
      if (!beacon_ok[b]) {
        continue;
      }
      const double band = std::max(kBandAbsMs, kBandRel * beacon_to_target[b]);
      const double deviation =
          std::abs(beacon_latency_[b][m] - beacon_to_target[b]);
      worst_deviation = std::max(worst_deviation, deviation);
      if (deviation <= band) {
        ++votes;
      }
    }
    if (votes >= quorum_votes) {
      candidates.push_back({worst_deviation, ids[m]});
    }
  }
  std::sort(candidates.begin(), candidates.end());
  if (static_cast<int>(candidates.size()) > config_.max_probe_candidates) {
    candidates.resize(
        static_cast<std::size_t>(config_.max_probe_candidates));
  }

  for (const auto& [score, candidate] : candidates) {
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

  // No candidate survived the quorum (or all were unreachable): fall
  // back to the best *answering* beacon. With every beacon silent the
  // query fails (found stays kInvalidNode).
  if (result.found == kInvalidNode) {
    for (std::size_t b = 0; b < beacons_.size(); ++b) {
      if (!beacon_ok[b]) {
        continue;
      }
      if (beacon_to_target[b] < result.found_latency_ms ||
          (beacon_to_target[b] == result.found_latency_ms &&
           beacons_[b] < result.found)) {
        result.found_latency_ms = beacon_to_target[b];
        result.found = beacons_[b];
      }
    }
  }
  return result;
}

}  // namespace np::algos
