#include "meridian/meridian.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "util/error.h"
#include "util/parallel.h"

namespace np::meridian {

MeridianOverlay::MeridianOverlay(MeridianConfig config)
    : config_(config) {
  NP_ENSURE(config_.ring_size >= 1, "ring size must be positive");
  NP_ENSURE(config_.beta > 0.0 && config_.beta < 1.0,
            "beta must be in (0, 1)");
}

int MeridianOverlay::RingIndexFor(LatencyMs latency_ms) const {
  if (latency_ms < kAlphaMs) {
    return 0;
  }
  const int ring =
      1 + static_cast<int>(
              std::floor(std::log(latency_ms / kAlphaMs) /
                         std::log(kRingGrowth)));
  return std::min(ring, kNumRings - 1);
}

std::vector<RingEntry> MeridianOverlay::SelectRingMembers(
    std::vector<RingEntry> candidates, util::Rng& rng) const {
  const auto k = static_cast<std::size_t>(config_.ring_size);
  if (candidates.size() <= k) {
    return candidates;
  }
  switch (config_.selection) {
    case RingSelectionPolicy::kRandom: {
      rng.Shuffle(candidates);
      candidates.resize(k);
      return candidates;
    }
    case RingSelectionPolicy::kSumDistance:
    case RingSelectionPolicy::kMaxMin: {
      // Greedy diversity selection: seed with a random candidate, then
      // repeatedly add the candidate that maximizes its distance score
      // to the already-selected set (min-distance for kMaxMin — the
      // k-center rule — or sum-distance). `score[i]` carries the
      // incremental state so each round is O(|candidates|).
      const bool use_min = config_.selection == RingSelectionPolicy::kMaxMin;
      std::vector<RingEntry> selected;
      selected.reserve(k);
      std::vector<bool> taken(candidates.size(), false);
      std::vector<double> score(
          candidates.size(),
          use_min ? std::numeric_limits<double>::infinity() : 0.0);
      std::size_t seed = rng.Index(candidates.size());
      while (selected.size() < k) {
        taken[seed] = true;
        selected.push_back(candidates[seed]);
        if (selected.size() == k) {
          break;
        }
        const NodeId just_added = candidates[seed].member;
        const core::ProbePolicy& policy = probe_policy();
        double best_score = -1.0;
        std::size_t best_index = candidates.size();
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          if (taken[i]) {
            continue;
          }
          // A lost pairwise probe leaves score[i] at its previous
          // (still-valid) value — the candidate just misses this
          // round's diversity update.
          const auto measured =
              policy.Probe(*space_, candidates[i].member, just_added);
          if (measured) {
            const double d = *measured;
            score[i] = use_min ? std::min(score[i], d) : score[i] + d;
          }
          if (score[i] > best_score) {
            best_score = score[i];
            best_index = i;
          }
        }
        NP_ENSURE(best_index < candidates.size(),
                  "ring selection ran out of candidates");
        seed = best_index;
      }
      return selected;
    }
  }
  NP_ENSURE(false, "unknown ring selection policy");
  return {};
}

void MeridianOverlay::Build(const core::LatencySpace& space,
                            std::vector<NodeId> members, util::Rng& rng) {
  BuildImpl(space, std::move(members), rng, 1);
}

void MeridianOverlay::ParallelBuild(const core::LatencySpace& space,
                                    std::vector<NodeId> members,
                                    util::Rng& rng, int num_threads) {
  BuildImpl(space, std::move(members), rng, num_threads);
}

void MeridianOverlay::BuildImpl(const core::LatencySpace& space,
                                std::vector<NodeId> members, util::Rng& rng,
                                int num_threads) {
  NP_ENSURE(!members.empty(), "meridian requires at least one member");
  space_ = &space;
  members_.Reset(std::move(members));
  rings_.assign(members_.size(), {});
  if (config_.full_knowledge) {
    BuildFullKnowledge(space, rng, num_threads);
  } else {
    // Gossip rounds exchange state between members and are inherently
    // order-dependent; they run serially for any thread budget.
    BuildByGossip(space, rng);
  }

  // Occurrence pass (serial: a ring member's list is appended from
  // every owner, so fan-out here would race).
  occ_.Reset(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    for (std::size_t r = 0; r < rings_[i].size(); ++r) {
      for (const RingEntry& entry : rings_[i][r]) {
        occ_[members_.PositionOf(entry.member)].entries.push_back(
            core::BackRefs::Pack(members_.at(i), r));
      }
    }
  }
  occ_.SettleAll();
}

void MeridianOverlay::BuildFullKnowledge(const core::LatencySpace& space,
                                         util::Rng& rng, int num_threads) {
  const std::vector<NodeId>& ids = members_.members();
  // One base draw, then a private stream per member keyed by its node
  // id: iteration i touches only rings_[i], so any thread count
  // produces the serial result bit for bit.
  const std::uint64_t base = rng();
  const core::ProbePolicy& policy = probe_policy();
  util::ParallelFor(0, ids.size(), num_threads, [&](std::size_t i) {
    const NodeId owner = ids[i];
    util::Rng mrng(util::Mix64(base ^ static_cast<std::uint64_t>(owner)));
    std::vector<std::vector<RingEntry>> buckets(
        static_cast<std::size_t>(kNumRings));
    // The owner rides second so row-caching backends reuse its row.
    for (const NodeId other : ids) {
      if (other == owner) {
        continue;
      }
      const auto measured = policy.Probe(space, other, owner);
      if (!measured) {
        continue;  // unreachable during build: not ringed
      }
      const LatencyMs d = *measured;
      buckets[static_cast<std::size_t>(RingIndexFor(d))].push_back(
          RingEntry{other, d});
    }
    rings_[i].resize(buckets.size());
    for (std::size_t r = 0; r < buckets.size(); ++r) {
      rings_[i][r] = SelectRingMembers(std::move(buckets[r]), mrng);
    }
  });
}

void MeridianOverlay::BuildByGossip(const core::LatencySpace& space,
                                    util::Rng& rng) {
  NP_ENSURE(config_.gossip_bootstrap_contacts >= 1,
            "gossip needs at least one bootstrap contact");
  NP_ENSURE(config_.gossip_rounds >= 1, "gossip needs at least one round");
  const std::vector<NodeId>& ids = members_.members();
  const std::size_t n = ids.size();

  // Known-candidate sets per node (ring buckets, unbounded during
  // discovery; selection prunes at the end of every round).
  std::vector<std::vector<std::vector<RingEntry>>> buckets(
      n, std::vector<std::vector<RingEntry>>(
             static_cast<std::size_t>(kNumRings)));
  // Membership bitmaps to avoid duplicate learning.
  std::vector<std::vector<bool>> knows(n, std::vector<bool>(n, false));

  const core::ProbePolicy& policy = probe_policy();
  const auto learn = [&](std::size_t owner, std::size_t other) {
    if (owner == other || knows[owner][other]) {
      return;
    }
    const auto measured = policy.Probe(space, ids[other], ids[owner]);
    if (!measured) {
      return;  // lost handshake: a later gossip round may retry
    }
    knows[owner][other] = true;
    buckets[owner][static_cast<std::size_t>(RingIndexFor(*measured))]
        .push_back(RingEntry{ids[other], *measured});
  };

  // Bootstrap: a few random contacts each (the join server's seed
  // list), symmetric so the gossip graph starts connected.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(config_.gossip_bootstrap_contacts), n - 1);
    for (std::size_t pick : rng.Sample(n - 1, k)) {
      const std::size_t j = pick >= i ? pick + 1 : pick;
      learn(i, j);
      learn(j, i);
    }
  }

  for (int round = 0; round < config_.gossip_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      // Pick a random known contact and import its ring members.
      std::vector<std::size_t> contacts;
      for (const auto& ring : buckets[i]) {
        for (const RingEntry& entry : ring) {
          contacts.push_back(members_.PositionOf(entry.member));
        }
      }
      if (contacts.empty()) {
        continue;
      }
      const std::size_t peer = contacts[rng.Index(contacts.size())];
      for (const auto& ring : buckets[peer]) {
        for (const RingEntry& entry : ring) {
          learn(i, members_.PositionOf(entry.member));
        }
      }
      // Prune every bucket back to capacity so gossip messages stay
      // bounded (this is also what keeps ring diversity working).
      for (auto& ring : buckets[i]) {
        if (ring.size() >
            static_cast<std::size_t>(config_.ring_size)) {
          ring = SelectRingMembers(std::move(ring), rng);
        }
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    rings_[i].resize(buckets[i].size());
    for (std::size_t r = 0; r < buckets[i].size(); ++r) {
      rings_[i][r] = SelectRingMembers(std::move(buckets[i][r]), rng);
    }
  }
}

void MeridianOverlay::AddMember(NodeId node, util::Rng& rng) {
  NP_ENSURE(space_ != nullptr, "Build must run before AddMember");
  const std::size_t existing = members_.size();
  const std::size_t position = members_.Add(node);
  rings_.emplace_back(static_cast<std::size_t>(kNumRings));
  occ_.Grow();
  const std::vector<NodeId>& ids = members_.members();
  const core::ProbePolicy& policy = probe_policy();

  // Join protocol: learn candidates from a few random contacts and
  // their ring members.
  std::vector<std::size_t> candidates;
  const std::size_t contacts = std::min<std::size_t>(
      static_cast<std::size_t>(
          std::max(config_.gossip_bootstrap_contacts, 1)),
      existing);
  if (contacts > 0) {
    std::vector<bool> seen(ids.size(), false);
    seen[position] = true;
    for (std::size_t pick : rng.Sample(existing, contacts)) {
      if (!seen[pick]) {
        seen[pick] = true;
        candidates.push_back(pick);
      }
      for (const auto& ring : rings_[pick]) {
        for (const RingEntry& entry : ring) {
          const std::size_t other = members_.PositionOf(entry.member);
          if (!seen[other]) {
            seen[other] = true;
            candidates.push_back(other);
          }
        }
      }
    }
  }

  // Fill the joiner's rings from the learned candidates. A candidate
  // whose handshake probe is lost is simply not learned.
  std::vector<std::vector<RingEntry>> buckets(
      static_cast<std::size_t>(kNumRings));
  for (std::size_t other : candidates) {
    const auto measured = policy.Probe(*space_, ids[other], node);
    if (!measured) {
      continue;
    }
    buckets[static_cast<std::size_t>(RingIndexFor(*measured))].push_back(
        RingEntry{ids[other], *measured});
  }
  const auto holds = [this](auto... args) { return Holds(args...); };
  for (std::size_t r = 0; r < buckets.size(); ++r) {
    rings_[position][r] = SelectRingMembers(std::move(buckets[r]), rng);
    for (const RingEntry& entry : rings_[position][r]) {
      occ_.Add(members_.PositionOf(entry.member), node, r, members_, holds);
    }
  }

  // The contacts (and their ring members) learn about the joiner too
  // (a separate handshake in this direction, billed separately — and
  // lost independently).
  for (std::size_t other : candidates) {
    const auto measured = policy.Probe(*space_, ids[other], node);
    if (!measured) {
      continue;
    }
    const LatencyMs d = *measured;
    const auto r = static_cast<std::size_t>(RingIndexFor(d));
    auto& ring = rings_[other][r];
    ring.push_back(RingEntry{node, d});
    if (ring.size() > static_cast<std::size_t>(config_.ring_size)) {
      ring = SelectRingMembers(std::move(ring), rng);
    }
    // Recorded whether or not reselection kept the joiner: the purge
    // re-checks the ring, so an unkept entry is just stale.
    occ_.Add(position, ids[other], r, members_, holds);
  }
}

void MeridianOverlay::RemoveMember(NodeId node) {
  const std::size_t position = members_.PositionOf(node);
  NP_ENSURE(position != core::MemberIndex::kNoPosition, "not a member");
  NP_ENSURE(members_.size() > 1, "cannot remove the last member");

  // Purge the leaver from every ring its occurrence entries name.
  // Stale entries (ring reselected the leaver away, or the owner left)
  // erase nothing; erasing the leaver is always correct where it *is*
  // found. Cost: O(entries naming the leaver), independent of overlay
  // size.
  const auto purge = [&](std::size_t owner_pos, std::size_t r) {
    auto& ring = rings_[owner_pos][r];
    ring.erase(std::remove_if(ring.begin(), ring.end(),
                              [node](const RingEntry& entry) {
                                return entry.member == node;
                              }),
               ring.end());
  };
  std::vector<std::size_t> owner_pos;
  occ_.ForEachLive(position, members_, owner_pos, purge);

  const auto removed = members_.Remove(node);
  if (removed.swapped) {
    rings_[removed.position] = std::move(rings_.back());
  }
  rings_.pop_back();
  occ_.Mirror(removed);
}

const std::vector<std::vector<RingEntry>>& MeridianOverlay::RingsOf(
    NodeId member) const {
  const std::size_t position = members_.PositionOf(member);
  NP_ENSURE(position != core::MemberIndex::kNoPosition,
            "not an overlay member");
  return rings_[position];
}

std::size_t MeridianOverlay::OccurrenceEntries(NodeId member) const {
  const std::size_t position = members_.PositionOf(member);
  NP_ENSURE(position != core::MemberIndex::kNoPosition,
            "not an overlay member");
  return occ_[position].entries.size();
}

bool MeridianOverlay::Holds(std::size_t owner_pos, std::size_t ring,
                            NodeId member) const {
  const auto& entries = rings_[owner_pos][ring];
  return std::any_of(
      entries.begin(), entries.end(),
      [member](const RingEntry& entry) { return entry.member == member; });
}

core::QueryResult MeridianOverlay::FindNearest(
    NodeId target, const core::MeteredSpace& metered, util::Rng& rng) {
  return FindNearestTraced(target, metered, rng).result;
}

TracedResult MeridianOverlay::FindNearestTraced(
    NodeId target, const core::MeteredSpace& metered, util::Rng& rng) {
  NP_ENSURE(space_ != nullptr, "Build must be called before FindNearest");
  TracedResult traced;
  core::QueryResult& result = traced.result;

  // Per-query probe cache: a real Meridian query carries measured
  // results along, so each node measures the target at most once —
  // including give-ups, which are cached as nullopt (the query does
  // not re-try a peer its policy already declared dead).
  std::unordered_map<NodeId, std::optional<LatencyMs>> probed;
  const core::ProbePolicy& policy = probe_policy();
  const auto probe = [&](NodeId node) -> std::optional<LatencyMs> {
    const auto it = probed.find(node);
    if (it != probed.end()) {
      return it->second;
    }
    const auto d = policy.Probe(metered, node, target);
    probed.emplace(node, d);
    ++result.probes;
    return d;
  };

  NodeId current = members_.at(rng.Index(members_.size()));
  auto start = probe(current);
  for (int redraw = 0; !start && redraw < core::kStartRedraws; ++redraw) {
    current = members_.at(rng.Index(members_.size()));
    start = probe(current);
  }
  if (!start) {
    return traced;  // found stays kInvalidNode: give-up
  }
  LatencyMs current_distance = *start;

  NodeId best = current;
  LatencyMs best_distance = current_distance;

  for (int hop = 0; hop < kMaxHops; ++hop) {
    const auto& rings = rings_[members_.PositionOf(current)];
    const LatencyMs band_lo = (1.0 - config_.beta) * current_distance;
    const LatencyMs band_hi = (1.0 + config_.beta) * current_distance;

    HopRecord record;
    record.node = current;
    record.distance_to_target_ms = current_distance;

    NodeId next = kInvalidNode;
    LatencyMs next_distance = kInfiniteLatency;
    for (const auto& ring : rings) {
      for (const RingEntry& entry : ring) {
        if (entry.latency_ms < band_lo || entry.latency_ms > band_hi) {
          continue;
        }
        const auto measured = probe(entry.member);
        ++record.candidates_probed;
        if (!measured) {
          continue;  // stale/dead ring entry: route around it
        }
        const LatencyMs d = *measured;
        if (d < best_distance ||
            (d == best_distance && entry.member < best)) {
          best_distance = d;
          best = entry.member;
        }
        if (d < next_distance) {
          next_distance = d;
          next = entry.member;
        }
      }
    }
    traced.hops.push_back(record);

    // The beta gate: continue only on a significant improvement.
    if (next == kInvalidNode ||
        next_distance >= config_.beta * current_distance) {
      break;
    }
    current = next;
    current_distance = next_distance;
    ++result.hops;
  }

  // Meridian keeps its probe results, so the answer is the closest node
  // probed anywhere during the query, not only where routing stopped.
  result.found = best;
  result.found_latency_ms = best_distance;
  return traced;
}

}  // namespace np::meridian
