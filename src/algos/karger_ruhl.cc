#include "algos/karger_ruhl.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/contract.h"
#include "util/error.h"
#include "util/flat_count_table.h"
#include "util/parallel.h"

namespace np::algos {

namespace {

/// Read hint for a line the next pass writes or reads: the churn path
/// gathers a batch of independent addresses first so their cache
/// misses overlap instead of running one after another.
inline void Prefetch(const void* address) { __builtin_prefetch(address); }

/// Sort key of a joiner's probed member: scale in the high word, id in
/// the low one (ids are non-negative and fit 32 bits), so integer order
/// is (scale, id) order.
std::uint64_t PackProbed(int scale, NodeId id) {
  return (static_cast<std::uint64_t>(scale) << 32) |
         static_cast<std::uint64_t>(id);
}
int ProbedScale(std::uint64_t key) { return static_cast<int>(key >> 32); }
NodeId ProbedId(std::uint64_t key) {
  return static_cast<NodeId>(key & 0xFFFFFFFFULL);
}

}  // namespace

int KargerRuhlNearest::ScaleFor(LatencyMs distance_ms) const {
  if (distance_ms <= kAlphaMs) {
    return 0;
  }
  const int scale = 1 + static_cast<int>(std::floor(
                            std::log(distance_ms / kAlphaMs) /
                            std::log(kGrowth)));
  return std::min(scale, kNumScales - 1);
}

void KargerRuhlNearest::Build(const core::LatencySpace& space,
                              std::vector<NodeId> members, util::Rng& rng) {
  BuildImpl(space, std::move(members), rng, 1);
}

void KargerRuhlNearest::ParallelBuild(const core::LatencySpace& space,
                                      std::vector<NodeId> members,
                                      util::Rng& rng, int num_threads) {
  BuildImpl(space, std::move(members), rng, num_threads);
}

void KargerRuhlNearest::BuildImpl(const core::LatencySpace& space,
                                  std::vector<NodeId> members,
                                  util::Rng& rng, int num_threads) {
  NP_ENSURE(!members.empty(), "requires at least one member");
  space_ = &space;
  members_.Reset(std::move(members));
  const std::size_t n = members_.size();
  const std::vector<NodeId>& ids = members_.members();

  samples_.assign(n * kStride, 0);
  occ_.Reset(n);
  // One base draw, then a private stream per member keyed by its node
  // id: iteration i writes only block i, so any thread count produces
  // the serial result bit for bit.
  const std::uint64_t base = rng();
  const core::ProbePolicy& policy = probe_policy();
  util::ParallelFor(0, n, num_threads, [&](std::size_t i) {
    const NodeId self = ids[i];
    util::Rng mrng(util::Mix64(base ^ static_cast<std::uint64_t>(self)));
    // Bucket the other members by the smallest ball containing them;
    // ball `s` then contains all buckets <= s. `self` rides in the
    // second argument so row-caching backends reuse its row.
    std::vector<std::vector<NodeId>> balls(
        static_cast<std::size_t>(kNumScales));
    for (const NodeId other : ids) {
      if (other == self) {
        continue;
      }
      const auto d = policy.Probe(space, other, self);
      if (!d) {
        continue;  // unreachable at build time: simply not bucketed
      }
      const int scale = ScaleFor(*d);
      balls[static_cast<std::size_t>(scale)].push_back(other);
    }
    NodeId* block = Block(i);
    std::vector<NodeId> cumulative;
    for (int s = 0; s < kNumScales; ++s) {
      cumulative.insert(cumulative.end(),
                        balls[static_cast<std::size_t>(s)].begin(),
                        balls[static_cast<std::size_t>(s)].end());
      NodeId* chosen = block + SlotOffset(s);
      const std::size_t k = std::min<std::size_t>(
          static_cast<std::size_t>(kSamplesPerScale), cumulative.size());
      if (k == cumulative.size()) {
        std::copy(cumulative.begin(), cumulative.end(), chosen);
      } else {
        for (std::size_t pick : mrng.Sample(cumulative.size(), k)) {
          *chosen++ = cumulative[pick];
        }
      }
      block[s] = static_cast<NodeId>(k);
    }
  });

  // Occurrence pass (serial: a sampled member's list is appended from
  // every owner, so fan-out here would race).
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId* block = Block(i);
    for (int s = 0; s < kNumScales; ++s) {
      const NodeId* slots = block + SlotOffset(s);
      for (NodeId j = 0; j < block[s]; ++j) {
        occ_[members_.PositionOf(slots[j])].entries.push_back(
            core::BackRefs::Pack(ids[i], s));
      }
    }
  }
  occ_.SettleAll();
}

void KargerRuhlNearest::AddMember(NodeId node, util::Rng& rng) {
  NP_ENSURE(space_ != nullptr, "Build must run before AddMember");
  const std::size_t existing = members_.size();
  const std::size_t position = members_.Add(node);
  samples_.resize(samples_.size() + kStride, 0);  // every count starts at 0
  occ_.Grow();
  const std::vector<NodeId>& ids = members_.members();
  const core::ProbePolicy& policy = probe_policy();
  const auto per_scale = static_cast<NodeId>(kSamplesPerScale);
  const auto per_scale_size = static_cast<std::size_t>(per_scale);

  // The joiner probes a bounded random subset of the overlay — enough
  // to fill every scale in expectation, far less than a full scan.
  // Probe pass: the billed probes in draw order, each owner's count
  // word and slot run prefetched as soon as its scale is known. Probes
  // draw nothing from `rng`, so the writes can wait for the apply pass.
  const std::size_t budget = std::min<std::size_t>(
      existing, per_scale_size * static_cast<std::size_t>(kNumScales));
  struct Probed {
    std::uint64_t key;  // scale << 32 | id: the (scale, id) order
    std::size_t position;
  };
  std::vector<Probed> probed;
  probed.reserve(budget);
  for (const std::size_t pick : rng.Sample(existing, budget)) {
    const NodeId other = ids[pick];
    const auto measured = policy.Probe(*space_, other, node);
    if (!measured) {
      continue;  // no handshake, no exchange in either direction
    }
    const int scale = ScaleFor(*measured);
    probed.push_back({PackProbed(scale, other), pick});
    const NodeId* theirs = Block(pick);
    Prefetch(theirs + scale);
    Prefetch(theirs + SlotOffset(scale));
  }

  // Apply pass, in probe order: the probed member learns about the
  // joiner from the same handshake — keep it when the scale has room,
  // otherwise replace a random entry (membership refresh keeps samples
  // live under churn).
  auto& own_occ = occ_[position].entries;
  own_occ.reserve(probed.size());
  for (const Probed& p : probed) {
    const int scale = ProbedScale(p.key);
    NodeId* theirs = Block(p.position);
    NodeId& count = theirs[scale];
    NodeId* slots = theirs + SlotOffset(scale);
    if (count < per_scale) {
      slots[count++] = node;
    } else {
      slots[rng.Index(static_cast<std::size_t>(count))] = node;
    }
    own_occ.push_back(core::BackRefs::Pack(ProbedId(p.key), scale));
  }
  // Every entry just appended is live and unique: each pick is a
  // distinct owner whose list now holds the joiner. So the list needs
  // no compaction; its floor is set as BuildImpl sets it.
  occ_.Settle(position);

  // Cumulative-ball semantics (as in Build): a member whose smallest
  // containing ball is s is eligible for every scale >= s. Keys are
  // unique (one per probed id), so this order is the (scale, id) one.
  std::sort(probed.begin(), probed.end(),
            [](const Probed& a, const Probed& b) { return a.key < b.key; });
  // Selection: every scale's Sample draw first, in scale order. The
  // chosen ids go straight into the joiner's slots and their positions
  // into `chosen_pos` (scale s at [s * per_scale, s * per_scale +
  // taken[s])), but each count is only published when its scale's
  // appends run below: a compaction at scale s must see the joiner's
  // scales above s still empty, as it did when each scale was applied
  // before the next one was drawn (a rejoining member can have stale
  // entries naming those scales).
  NodeId* own = Block(position);
  std::vector<std::size_t> chosen_pos(
      static_cast<std::size_t>(kNumScales) * per_scale_size);
  std::vector<std::size_t> taken(static_cast<std::size_t>(kNumScales));
  std::size_t consumed = 0;
  for (int s = 0; s < kNumScales; ++s) {
    while (consumed < probed.size() &&
           ProbedScale(probed[consumed].key) <= s) {
      ++consumed;
    }
    NodeId* chosen = own + SlotOffset(s);
    std::size_t* positions =
        chosen_pos.data() + static_cast<std::size_t>(s) * per_scale_size;
    const std::size_t k = std::min(per_scale_size, consumed);
    if (k == consumed) {
      for (std::size_t i = 0; i < consumed; ++i) {
        *chosen++ = ProbedId(probed[i].key);
        *positions++ = probed[i].position;
      }
    } else {
      for (const std::size_t pick : rng.Sample(consumed, k)) {
        *chosen++ = ProbedId(probed[pick].key);
        *positions++ = probed[pick].position;
      }
    }
    taken[static_cast<std::size_t>(s)] = k;
  }
  // Touch every chosen member's occurrence list header, then its tail,
  // before the appends below need them.
  const auto chosen_at = [&](int s) {
    const std::size_t* first =
        chosen_pos.data() + static_cast<std::size_t>(s) * per_scale_size;
    return std::pair(first, first + taken[static_cast<std::size_t>(s)]);
  };
  for (int s = 0; s < kNumScales; ++s) {
    const auto [first, last] = chosen_at(s);
    for (const std::size_t* p = first; p != last; ++p) {
      Prefetch(&occ_[*p]);
    }
  }
  for (int s = 0; s < kNumScales; ++s) {
    const auto [first, last] = chosen_at(s);
    for (const std::size_t* p = first; p != last; ++p) {
      const auto& entries = occ_[*p].entries;
      Prefetch(entries.data() + entries.size());
    }
  }
  // Counts, occurrence appends and compactions in (scale, pick) order.
  const auto holds = [this](auto... args) { return Holds(args...); };
  for (int s = 0; s < kNumScales; ++s) {
    const auto [first, last] = chosen_at(s);
    own[s] = static_cast<NodeId>(last - first);
    for (const std::size_t* p = first; p != last; ++p) {
      occ_.Add(*p, node, s, members_, holds);
    }
  }
}

bool KargerRuhlNearest::Holds(std::size_t owner_pos, std::size_t scale,
                              NodeId member) const {
  const NodeId* block = Block(owner_pos);
  const NodeId* slots = block + SlotOffset(static_cast<int>(scale));
  const NodeId* end = slots + block[scale];
  return std::find(slots, end, member) != end;
}

std::size_t KargerRuhlNearest::OccurrenceEntries(NodeId member) const {
  const std::size_t position = members_.PositionOf(member);
  NP_ENSURE(position != core::MemberIndex::kNoPosition, "not a member");
  return occ_[position].entries.size();
}

void KargerRuhlNearest::RemoveMember(NodeId node) {
  const std::size_t position = members_.PositionOf(node);
  NP_ENSURE(position != core::MemberIndex::kNoPosition, "not a member");
  NP_ENSURE(members_.size() > 1, "cannot remove the last member");

  // Purge the leaver from every sample list its occurrence entries
  // name (failure detection). Stale entries — the list replaced the
  // leaver earlier, or the owner itself left — erase nothing and are
  // skipped; erasing the leaver is always correct where it *is* found.
  // The erase keeps the survivors' order. Cost: O(entries naming the
  // leaver), independent of overlay size. Every owner is resolved
  // first (independent loads), then the purge runs in entry order.
  const auto purge = [&](std::size_t owner_pos, std::size_t scale) {
    NodeId* block = Block(owner_pos);
    NodeId* slots = block + SlotOffset(static_cast<int>(scale));
    block[scale] = static_cast<NodeId>(
        std::remove(slots, slots + block[scale], node) - slots);
  };
  std::vector<std::size_t> owner_pos;
  occ_.ForEachLive(position, members_, owner_pos, purge);

  const auto removed = members_.Remove(node);
  if (removed.swapped) {
    std::copy_n(Block(members_.size()), kStride, Block(removed.position));
  }
  occ_.Mirror(removed);
  samples_.resize(samples_.size() - kStride);
}

std::vector<NodeId> KargerRuhlNearest::SamplesOf(NodeId member,
                                                 int scale) const {
  const std::size_t position = members_.PositionOf(member);
  NP_ENSURE(position != core::MemberIndex::kNoPosition, "not a member");
  NP_ENSURE(scale >= 0 && scale < kNumScales, "scale out of range");
  const NodeId* block = Block(position);
  const NodeId* slots = block + SlotOffset(scale);
  return std::vector<NodeId>(slots, slots + block[scale]);
}

void KargerRuhlNearest::CheckInvariants() const {
  NP_ENSURE(space_ != nullptr, "Build must run before CheckInvariants");
  const std::size_t n = members_.size();
  NP_ENSURE(samples_.size() == n * kStride && occ_.size() == n,
            "per-member arrays disagree with the membership");
  std::vector<std::vector<std::uint64_t>> sorted_occ(n);
  for (std::size_t p = 0; p < n; ++p) {
    const core::BackRefs::List& occ = occ_[p];
    NP_ENSURE(occ.floor >= core::BackRefs::kCompactMin / 2,
              "occurrence floor too low");
    NP_ENSURE(!core::BackRefs::CompactionDue(occ),
              "occurrence list past its compaction trigger");
    sorted_occ[p] = occ.entries;
    std::sort(sorted_occ[p].begin(), sorted_occ[p].end());
  }
  for (std::size_t owner_pos = 0; owner_pos < n; ++owner_pos) {
    const NodeId owner = members_.at(owner_pos);
    const NodeId* block = Block(owner_pos);
    for (int s = 0; s < kNumScales; ++s) {
      NP_ENSURE(block[s] >= 0 && block[s] <= kSamplesPerScale,
                "sample count out of range");
      const NodeId* slots = block + SlotOffset(s);
      for (NodeId j = 0; j < block[s]; ++j) {
        const std::size_t held = members_.PositionOf(slots[j]);
        NP_ENSURE(held != core::MemberIndex::kNoPosition,
                  "sample list holds a departed member");
        NP_ENSURE(held != owner_pos, "sample list holds its owner");
        NP_ENSURE(std::binary_search(sorted_occ[held].begin(),
                                     sorted_occ[held].end(),
                                     core::BackRefs::Pack(owner, s)),
                  "held sample has no occurrence entry");
      }
    }
  }
}

core::QueryResult KargerRuhlNearest::FindNearest(
    NodeId target, const core::MeteredSpace& metered, util::Rng& rng) {
  NP_ENSURE(!members_.empty(), "Build must run before FindNearest");
  core::QueryResult result;
  const core::ProbePolicy& policy = probe_policy();
  // Member ids, billed on first sighting. One table per thread, kept
  // across queries so that a query allocates only while the table grows.
  NP_LINT_SUPPRESS("static-state",
                   "query scratch only: cleared on entry, so no value "
                   "crosses queries or depends on the thread");
  thread_local util::FlatCountTable probed;
  probed.Clear();
  const auto probe = [&](NodeId node) {
    const auto d = policy.Probe(metered, node, target);
    if (probed.Insert(static_cast<std::uint64_t>(node))) {
      ++result.probes;
    }
    return d;
  };

  // Under faults the start peer may be unreachable; redraw a few times
  // before giving the query up. At zero loss the first draw always
  // answers, keeping rng consumption identical to the fault-free path.
  NodeId current = members_.at(rng.Index(members_.size()));
  auto start = probe(current);
  for (int redraw = 0; !start && redraw < core::kStartRedraws; ++redraw) {
    current = members_.at(rng.Index(members_.size()));
    start = probe(current);
  }
  if (!start) {
    return result;  // found stays kInvalidNode: give-up
  }
  LatencyMs current_distance = *start;
  result.found = current;
  result.found_latency_ms = current_distance;

  for (int hop = 0; hop < kMaxHops; ++hop) {
    const NodeId* block = Block(members_.PositionOf(current));
    const int scale = ScaleFor(current_distance);
    NodeId best = kInvalidNode;
    LatencyMs best_distance = current_distance;
    for (int s = std::max(0, scale - kScaleWindow);
         s <= std::min(kNumScales - 1, scale + kScaleWindow); ++s) {
      const NodeId* slots = block + SlotOffset(s);
      for (NodeId j = 0; j < block[s]; ++j) {
        const NodeId candidate = slots[j];
        if (probed.Contains(static_cast<std::uint64_t>(candidate)) &&
            candidate != current) {
          continue;
        }
        const auto measured = probe(candidate);
        if (!measured) {
          continue;  // stale/dead sample: skip, keep zooming
        }
        const LatencyMs d = *measured;
        if (d < result.found_latency_ms ||
            (d == result.found_latency_ms && candidate < result.found)) {
          result.found_latency_ms = d;
          result.found = candidate;
        }
        if (d < best_distance) {
          best_distance = d;
          best = candidate;
        }
      }
    }
    if (best == kInvalidNode) {
      break;  // no strictly closer sample: the zoom-in is stuck
    }
    current = best;
    current_distance = best_distance;
    ++result.hops;
  }
  return result;
}

}  // namespace np::algos
