#include "algos/tapestry.h"

#include <algorithm>
#include <utility>

#include "util/error.h"
#include "util/parallel.h"

namespace np::algos {

int TapestryNearest::DigitAt(std::uint32_t id, int level) {
  const int shift = 4 * (kNumDigits - 1 - level);
  return static_cast<int>((id >> shift) & 0xF);
}

std::uint32_t TapestryNearest::IdOf(NodeId member) const {
  const std::size_t position = members_.PositionOf(member);
  NP_ENSURE(position != core::MemberIndex::kNoPosition, "not a member");
  return ids_[position];
}

int TapestryNearest::SharedPrefix(std::uint32_t a, std::uint32_t b) const {
  int shared = 0;
  while (shared < kNumDigits && DigitAt(a, shared) == DigitAt(b, shared)) {
    ++shared;
  }
  return shared;
}

std::uint32_t TapestryNearest::DrawFreshId(util::Rng& rng) {
  static_assert(kNumDigits == 8, "an id is one full 32-bit word");
  std::uint32_t id = 0;
  do {
    id = static_cast<std::uint32_t>(rng());
  } while (!used_ids_.insert(id).second);
  return id;
}

void TapestryNearest::InstallEntry(std::size_t owner_pos, std::size_t slot,
                                   NodeId entry, LatencyMs latency) {
  if (latency >= table_latency_[owner_pos][slot]) {
    return;
  }
  table_latency_[owner_pos][slot] = latency;
  tables_[owner_pos][slot] = entry;
  const auto holds = [this](auto... args) { return Holds(args...); };
  const std::size_t entry_pos = members_.PositionOf(entry);
  refs_.Add(entry_pos, members_.at(owner_pos), slot, members_, holds);
}

bool TapestryNearest::Holds(std::size_t owner_pos, std::size_t slot,
                            NodeId member) const {
  return tables_[owner_pos][slot] == member;
}

std::size_t TapestryNearest::RefEntries(NodeId member) const {
  const std::size_t position = members_.PositionOf(member);
  NP_ENSURE(position != core::MemberIndex::kNoPosition, "not a member");
  return refs_[position].entries.size();
}

void TapestryNearest::Build(const core::LatencySpace& space,
                            std::vector<NodeId> members, util::Rng& rng) {
  BuildImpl(space, std::move(members), rng, 1);
}

void TapestryNearest::ParallelBuild(const core::LatencySpace& space,
                                    std::vector<NodeId> members,
                                    util::Rng& rng, int num_threads) {
  BuildImpl(space, std::move(members), rng, num_threads);
}

void TapestryNearest::BuildImpl(const core::LatencySpace& space,
                                std::vector<NodeId> members, util::Rng& rng,
                                int num_threads) {
  NP_ENSURE(!members.empty(), "requires members");
  space_ = &space;
  members_.Reset(std::move(members));
  const std::size_t n = members_.size();
  const std::vector<NodeId>& node_ids = members_.members();
  ids_.resize(n);
  used_ids_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    ids_[i] = DrawFreshId(rng);
  }

  // For each node, level and digit: the closest member sharing the
  // first `level` digits of the node's id with `digit` at position
  // `level`. Each iteration writes only row i, and the scan consumes
  // no randomness, so the fan-out is bit-identical to the serial pass.
  tables_.assign(n, std::vector<NodeId>(kSlots, kInvalidNode));
  table_latency_.assign(n, std::vector<LatencyMs>(kSlots, kInfiniteLatency));
  const core::ProbePolicy& policy = probe_policy();
  util::ParallelFor(0, n, num_threads, [&](std::size_t i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) {
        continue;
      }
      const int shared = SharedPrefix(ids_[i], ids_[j]);
      // j is eligible for the table at every level <= shared. The
      // owner rides second so row-caching backends reuse its row.
      const auto measured = policy.Probe(space, node_ids[j], node_ids[i]);
      if (!measured) {
        continue;  // unreachable during build: not tabled
      }
      const double latency = *measured;
      for (int level = 0; level <= std::min(shared, kNumDigits - 1); ++level) {
        const int digit = DigitAt(ids_[j], level);
        const std::size_t slot =
            static_cast<std::size_t>(level) * 16 +
            static_cast<std::size_t>(digit);
        if (latency < table_latency_[i][slot]) {
          table_latency_[i][slot] = latency;
          tables_[i][slot] = node_ids[j];
        }
      }
    }
  });

  // Back-reference pass (serial: a referenced member collects refs
  // from every owner).
  refs_.Reset(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      const NodeId entry = tables_[i][slot];
      if (entry != kInvalidNode) {
        refs_[members_.PositionOf(entry)].entries.push_back(
            core::BackRefs::Pack(node_ids[i], slot));
      }
    }
  }
  refs_.SettleAll();
}

void TapestryNearest::AddMember(NodeId node, util::Rng& rng) {
  NP_ENSURE(space_ != nullptr, "Build must run before AddMember");
  const std::uint32_t id = DrawFreshId(rng);
  const std::size_t existing = members_.size();
  const std::size_t position = members_.Add(node);
  ids_.push_back(id);
  tables_.emplace_back(kSlots, kInvalidNode);
  table_latency_.emplace_back(kSlots, kInfiniteLatency);
  refs_.Grow();
  const std::vector<NodeId>& node_ids = members_.members();
  const core::ProbePolicy& policy = probe_policy();

  // One measurement per existing member serves both directions (an RTT
  // handshake): it fills the joiner's tables and lets each member
  // consider the joiner for its own. A lost handshake drops that pair
  // from the exchange entirely.
  for (std::size_t j = 0; j < existing; ++j) {
    const int shared = SharedPrefix(id, ids_[j]);
    const auto measured = policy.Probe(*space_, node_ids[j], node);
    if (!measured) {
      continue;
    }
    const double latency = *measured;
    for (int level = 0; level <= std::min(shared, kNumDigits - 1); ++level) {
      const std::size_t joiner_slot =
          static_cast<std::size_t>(level) * 16 +
          static_cast<std::size_t>(DigitAt(ids_[j], level));
      InstallEntry(position, joiner_slot, node_ids[j], latency);
      const std::size_t member_slot =
          static_cast<std::size_t>(level) * 16 +
          static_cast<std::size_t>(DigitAt(id, level));
      InstallEntry(j, member_slot, node, latency);
    }
  }
}

void TapestryNearest::RemoveMember(NodeId node) {
  const std::size_t position = members_.PositionOf(node);
  NP_ENSURE(position != core::MemberIndex::kNoPosition, "not a member");
  NP_ENSURE(members_.size() > 1, "cannot remove the last member");

  // Evict the leaver from exactly the slots that reference it. A
  // back-reference is stale when the slot was since overwritten by a
  // closer candidate, or its owner left (possibly re-joining under the
  // same id) — the slot re-check filters all of those. Orphaned slots
  // become repair work.
  std::vector<std::pair<NodeId, std::size_t>> orphans;  // (owner, slot)
  const auto evict = [&](std::size_t owner_pos, std::size_t slot) {
    if (tables_[owner_pos][slot] == node) {
      tables_[owner_pos][slot] = kInvalidNode;
      table_latency_[owner_pos][slot] = kInfiniteLatency;
      orphans.push_back({members_.at(owner_pos), slot});
    }
  };
  std::vector<std::size_t> owner_pos;
  refs_.ForEachLive(position, members_, owner_pos, evict);

  used_ids_.erase(ids_[position]);
  const auto removed = members_.Remove(node);
  if (removed.swapped) {
    ids_[removed.position] = ids_.back();
    tables_[removed.position] = std::move(tables_.back());
    table_latency_[removed.position] = std::move(table_latency_.back());
  }
  ids_.pop_back();
  tables_.pop_back();
  table_latency_.pop_back();
  refs_.Mirror(removed);

  // Prefix repair: each orphaned slot's owner re-scans the eligible
  // members, measuring each candidate once per owner (billed). This is
  // the costly part of identifier-based sampling under churn — the
  // scheme's own repair price, not index bookkeeping.
  std::sort(orphans.begin(), orphans.end());
  const std::size_t n = members_.size();
  const std::vector<NodeId>& node_ids = members_.members();
  const core::ProbePolicy& policy = probe_policy();
  std::size_t o = 0;
  while (o < orphans.size()) {
    const NodeId owner = orphans[o].first;
    const std::size_t owner_pos = members_.PositionOf(owner);
    std::size_t end = o;
    while (end < orphans.size() && orphans[end].first == owner) {
      ++end;
    }
    // `tried` keeps a failed candidate from being re-probed for every
    // orphaned slot it is eligible for: one give-up per (owner,
    // candidate) pair. Its latency stays kInfiniteLatency, which
    // InstallEntry rejects — a dead candidate can never win a slot.
    std::vector<LatencyMs> measured(n, kInfiniteLatency);
    std::vector<char> tried(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == owner_pos) {
        continue;
      }
      const int shared = SharedPrefix(ids_[owner_pos], ids_[j]);
      for (std::size_t k = o; k < end; ++k) {
        const std::size_t slot = orphans[k].second;
        const int level = static_cast<int>(slot / 16);
        const int digit = static_cast<int>(slot % 16);
        if (shared < level || DigitAt(ids_[j], level) != digit) {
          continue;
        }
        if (!tried[j]) {
          tried[j] = 1;
          const auto m =
              policy.Probe(*space_, node_ids[j], node_ids[owner_pos]);
          if (m) {
            measured[j] = *m;
          }
        }
        InstallEntry(owner_pos, slot, node_ids[j], measured[j]);
      }
    }
    o = end;
  }
}

std::vector<NodeId> TapestryNearest::TableOf(NodeId member, int level) const {
  const std::size_t position = members_.PositionOf(member);
  NP_ENSURE(position != core::MemberIndex::kNoPosition, "not a member");
  NP_ENSURE(level >= 0 && level < kNumDigits, "level out of range");
  std::vector<NodeId> out;
  for (int digit = 0; digit < 16; ++digit) {
    const NodeId entry =
        tables_[position][static_cast<std::size_t>(level) * 16 +
                          static_cast<std::size_t>(digit)];
    if (entry != kInvalidNode) {
      out.push_back(entry);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

core::QueryResult TapestryNearest::FindNearest(
    NodeId target, const core::MeteredSpace& metered, util::Rng& rng) {
  NP_ENSURE(!members_.empty(), "Build must run before FindNearest");
  core::QueryResult result;
  const core::ProbePolicy& policy = probe_policy();

  // Under faults the start peer may be unreachable; redraw a few times
  // before giving the query up (zero extra rng at zero loss).
  std::size_t current = rng.Index(members_.size());
  auto start = policy.Probe(metered, members_.at(current), target);
  for (int redraw = 0; !start && redraw < core::kStartRedraws; ++redraw) {
    current = rng.Index(members_.size());
    start = policy.Probe(metered, members_.at(current), target);
  }
  if (!start) {
    return result;  // found stays kInvalidNode: give-up
  }
  result.found = members_.at(current);
  result.found_latency_ms = *start;

  // Descend the levels: probe the whole level table, move to the
  // closest entry (the iterative construction from §6), and continue
  // from that node's next level.
  for (int level = 0; level < kNumDigits; ++level) {
    if (result.hops >= kMaxHops) {
      break;
    }
    std::size_t best = current;
    LatencyMs best_distance = kInfiniteLatency;
    for (int digit = 0; digit < 16; ++digit) {
      const NodeId candidate =
          tables_[current][static_cast<std::size_t>(level) * 16 +
                           static_cast<std::size_t>(digit)];
      if (candidate == kInvalidNode) {
        continue;
      }
      const auto measured = policy.Probe(metered, candidate, target);
      if (!measured) {
        continue;  // stale/dead table entry: route around it
      }
      const LatencyMs d = *measured;
      if (d < result.found_latency_ms ||
          (d == result.found_latency_ms && candidate < result.found)) {
        result.found_latency_ms = d;
        result.found = candidate;
      }
      if (d < best_distance) {
        best_distance = d;
        best = members_.PositionOf(candidate);
      }
    }
    if (best != current) {
      ++result.hops;
      current = best;
    }
  }
  return result;
}

}  // namespace np::algos
