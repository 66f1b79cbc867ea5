#include "algos/coord_nearest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/error.h"
#include "util/parallel.h"

namespace np::algos {

namespace {

/// Stream tags for the forked per-node rng streams (arbitrary,
/// distinct constants).
constexpr std::uint64_t kInitTag = 0x636f6f7264496e69ULL;
constexpr std::uint64_t kRoundTag = 0x636f6f7264526e64ULL;
constexpr std::uint64_t kRefreshTag = 0x636f6f7264526672ULL;
constexpr std::uint64_t kLinkTag = 0x636f6f72644c6e6bULL;
constexpr std::uint64_t kLandmarkTag = 0x636f6f72644c6d6bULL;
constexpr std::uint64_t kPlaceTag = 0x636f6f7264506c63ULL;
constexpr std::uint64_t kChurnTag = 0x636f6f7264436872ULL;

/// Spring timestep for post-build keep-fresh gossip: a polish-scale
/// fraction of the build timestep, so steady-state gossip refines
/// without destabilizing converged coordinates.
constexpr double kGossipCeFrac = 0.2;

/// Relaxation step for landmark-scheme refresh/placement updates.
constexpr double kLandmarkStep = 0.25;

double SlotDistance(const double* a, const double* b, int dims) {
  double sq = 0.0;
  for (int d = 0; d < dims; ++d) {
    const double diff = a[d] - b[d];
    sq += diff * diff;
  }
  return std::sqrt(sq);
}

/// One Vivaldi spring update of `self` toward/away from a neighbor at
/// measured RTT: adjusts self's coordinate and confidence-weighted
/// error in place (Dabek et al., Fig. 3). `rng` is only consumed when
/// the two coordinates coincide (random escape direction).
void VivaldiSpringUpdate(double* self, double& self_error,
                         const double* other, double other_error, double rtt,
                         int dims, double ce, double cc, util::Rng& rng) {
  double dist = 0.0;
  for (int d = 0; d < dims; ++d) {
    const double diff = self[d] - other[d];
    dist += diff * diff;
  }
  dist = std::sqrt(dist);

  const double w = self_error / std::max(self_error + other_error, 1e-9);
  const double relative_error = std::abs(dist - rtt) / std::max(rtt, 1e-6);
  self_error = relative_error * cc * w + self_error * (1.0 - cc * w);
  self_error = std::clamp(self_error, 0.01, 2.0);
  const double step = ce * w * (rtt - dist);

  // Move along the unit vector from other to self; a random direction
  // when the two coincide.
  if (dist < 1e-9) {
    std::vector<double> unit(static_cast<std::size_t>(dims));
    double norm = 0.0;
    for (int d = 0; d < dims; ++d) {
      unit[static_cast<std::size_t>(d)] = rng.Gaussian();
      norm += unit[static_cast<std::size_t>(d)] *
              unit[static_cast<std::size_t>(d)];
    }
    norm = std::sqrt(std::max(norm, 1e-12));
    for (int d = 0; d < dims; ++d) {
      self[d] += step * (unit[static_cast<std::size_t>(d)] / norm);
    }
    return;
  }
  // self[d] is read before it is written: no buffer needed.
  for (int d = 0; d < dims; ++d) {
    self[d] += step * ((self[d] - other[d]) / dist);
  }
}

/// One GNP-style relaxation step pulling `self` toward satisfying
/// |self - other| = rtt, with step size `step`. `rng` is only consumed
/// when the coordinates coincide (random nudge).
void LandmarkRelax(double* self, const double* other, double rtt, int dims,
                   double step, util::Rng& rng) {
  double dist = SlotDistance(self, other, dims);
  if (dist < 1e-9) {
    // Coincident: nudge in a random direction.
    for (int d = 0; d < dims; ++d) {
      self[d] += step * rng.Gaussian();
    }
    return;
  }
  const double factor = step * (rtt - dist) / dist;
  for (int d = 0; d < dims; ++d) {
    self[d] += factor * (self[d] - other[d]);
  }
}

}  // namespace

std::string CoordSchemeName(CoordScheme scheme) {
  switch (scheme) {
    case CoordScheme::kVivaldi:
      return "coord-vivaldi";
    case CoordScheme::kPic:
      return "coord-pic";
    case CoordScheme::kLandmark:
      return "coord-landmark";
  }
  NP_ENSURE(false, "unknown coordinate scheme");
  return "";
}

CoordNearest::CoordNearest(CoordConfig config) : config_(config) {
  NP_ENSURE(config_.dimensions >= 1, "need at least one dimension");
  NP_ENSURE(config_.gossip_rounds >= 1, "invalid gossip schedule");
  NP_ENSURE(config_.sharpen_cycles >= 0 && config_.sharpen_rounds >= 1,
            "invalid sharpening schedule");
  if (config_.scheme == CoordScheme::kLandmark) {
    NP_ENSURE(config_.num_landmarks >= config_.dimensions + 1,
              "need at least dims+1 landmarks for a stable embedding");
    NP_ENSURE(config_.landmark_iterations >= 1, "invalid landmark schedule");
  }
}

double CoordNearest::DistanceToSlot(const double* coordinate,
                                    std::size_t slot) const {
  return SlotDistance(
      coordinate,
      &coords_[slot * static_cast<std::size_t>(config_.dimensions)],
      config_.dimensions);
}

std::vector<double> CoordNearest::CoordinateOf(NodeId node) const {
  const std::size_t slot = members_.PositionOf(node);
  NP_ENSURE(slot != core::MemberIndex::kNoPosition, "not a member");
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  return std::vector<double>(coords_.begin() + static_cast<long>(slot * dims),
                             coords_.begin() +
                                 static_cast<long>((slot + 1) * dims));
}

LatencyMs CoordNearest::PredictedLatency(NodeId a, NodeId b) const {
  const std::size_t slot_a = members_.PositionOf(a);
  const std::size_t slot_b = members_.PositionOf(b);
  NP_ENSURE(slot_a != core::MemberIndex::kNoPosition &&
                slot_b != core::MemberIndex::kNoPosition,
            "not a member");
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  return DistanceToSlot(&coords_[slot_a * dims], slot_b);
}

void CoordNearest::Build(const core::LatencySpace& space,
                         std::vector<NodeId> members, util::Rng& rng) {
  BuildImpl(space, std::move(members), rng, 1);
}

void CoordNearest::ParallelBuild(const core::LatencySpace& space,
                                 std::vector<NodeId> members, util::Rng& rng,
                                 int num_threads) {
  BuildImpl(space, std::move(members), rng, num_threads);
}

void CoordNearest::BuildImpl(const core::LatencySpace& space,
                             std::vector<NodeId> members, util::Rng& rng,
                             int num_threads) {
  NP_ENSURE(!members.empty(), "requires members");
  space_ = &space;
  members_.Reset(std::move(members));
  const std::size_t n = members_.size();
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  coords_.assign(n * dims, 0.0);
  errors_.assign(n, 1.0);
  landmarks_.clear();
  links_.clear();

  // One root draw from the caller stream; everything below forks off
  // it (serial and parallel paths consume `rng` identically).
  const std::uint64_t base = rng();
  churn_rng_ = util::Rng(util::Mix64(base ^ kChurnTag));

  if (config_.scheme == CoordScheme::kLandmark) {
    TrainLandmarks(base, rng, num_threads);
  } else {
    TrainGossip(base, num_threads);
  }
  if (config_.scheme == CoordScheme::kPic) {
    BuildLinks(base, num_threads);
  }
}

void CoordNearest::TrainGossip(std::uint64_t base, int num_threads) {
  const std::vector<NodeId>& ids = members_.members();
  const std::size_t n = ids.size();
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  const core::ProbePolicy& policy = probe_policy();

  // Small random init breaks symmetry (per-node streams).
  util::ParallelFor(0, n, num_threads, [&](std::size_t m) {
    util::Rng r(util::Mix64(base ^ kInitTag ^
                            static_cast<std::uint64_t>(ids[m])));
    double* row = &coords_[m * dims];
    for (std::size_t d = 0; d < dims; ++d) {
      row[d] = r.Gaussian(0.0, 1.0);
    }
  });
  if (n < 2) {
    return;
  }

  // Per-member close-neighbor sets, filled in by the sharpening
  // cycles below (empty during the coarse phase).
  const std::size_t k = std::min<std::size_t>(
      static_cast<std::size_t>(kGossipNeighbors), n - 1);
  std::vector<std::vector<std::size_t>> close_sets(n);
  const std::size_t half = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(kGossipNeighbors / 2, 1)),
      k);

  // Per-member (measured rtt, slot) ledger of the nearest contacts
  // the member has *measured* since its last refresh (bounded
  // max-heap: the kMeasuredCap smallest rtts survive). A misplaced
  // member's coordinate both ranks its true neighborhood as far and
  // predicts falsely small distances to its wrong neighbors, so
  // coordinate-ranked refreshes can never recover it — but its
  // relaxation contacts already pay for real rtts, and a measurement
  // is ground truth no bad embedding can argue with. The refresh
  // keys every measured contact by its real rtt (coordinate distance
  // only ranks never-measured candidates), so a stuck member
  // re-anchors to its true neighborhood the moment one random contact
  // lands there — at zero extra probe cost.
  constexpr std::size_t kMeasuredCap = 48;
  std::vector<std::vector<std::pair<double, std::size_t>>> measured_rtts(n);

  // Jacobi rounds: every member updates against a snapshot of the
  // previous round from a per-(round,node) stream. Disjoint writes +
  // snapshot reads = bit-identical for any thread count. Every
  // contact is one billed probe through the policy (the gossip
  // message the scheme actually sends); lost messages leave the
  // coordinate where the last round put it.
  //
  // Partner choice matters more than anything else here: a FIXED
  // sparse neighbor graph lets the spring system satisfy its few
  // constraints while misplacing nodes globally — it plateaus near
  // 30% median error with no local signal at all. Fresh uniformly
  // random partners every round keep every pairwise constraint in
  // play and converge an order of magnitude tighter. The sharpening
  // rounds then mix `contacts_per_round` contacts: the close set
  // first, fresh random partners for the remainder (the Vivaldi
  // paper's half-close/half-far neighbor mix).
  std::vector<double> prev_coords;
  std::vector<double> prev_errors;
  const auto run_rounds = [&](int first_round, int rounds, double ce_start,
                              double ce_end, std::size_t contacts_per_round) {
    for (int round = 0; round < rounds; ++round) {
      prev_coords = coords_;
      prev_errors = errors_;
      const double t =
          rounds <= 1 ? 0.0 : static_cast<double>(round) / (rounds - 1);
      const double ce = ce_start + t * (ce_end - ce_start);
      const std::uint64_t round_key = util::Mix64(
          base ^ kRoundTag ^
          static_cast<std::uint64_t>(first_round + round));
      util::ParallelFor(0, n, num_threads, [&](std::size_t m) {
        util::Rng r(util::Mix64(round_key ^
                                static_cast<std::uint64_t>(ids[m])));
        const auto& close = close_sets[m];
        for (std::size_t c = 0; c < contacts_per_round; ++c) {
          std::size_t j;
          if (c < close.size()) {
            j = close[c];
          } else {
            const std::size_t s = r.Index(n - 1);
            j = s >= m ? s + 1 : s;
          }
          const auto measured = policy.Probe(*space_, ids[m], ids[j]);
          if (!measured) {
            continue;  // lost gossip message
          }
          // Remember the measurement for the next refresh (each
          // member writes only its own ledger; duplicate slots are
          // collapsed there).
          std::vector<std::pair<double, std::size_t>>& seen =
              measured_rtts[m];
          if (seen.size() < kMeasuredCap) {
            seen.push_back({*measured, j});
            std::push_heap(seen.begin(), seen.end());
          } else if (*measured < seen.front().first) {
            std::pop_heap(seen.begin(), seen.end());
            seen.back() = {*measured, j};
            std::push_heap(seen.begin(), seen.end());
          }
          VivaldiSpringUpdate(&coords_[m * dims], errors_[m],
                              &prev_coords[j * dims], prev_errors[j],
                              *measured, config_.dimensions, ce, kCc, r);
        }
      });
    }
  };

  // Phase 1: coarse placement — one fresh random contact per member
  // per round lays out the global geometry.
  run_rounds(0, config_.gossip_rounds, kCe, kCe * 0.4,
             /*contacts_per_round=*/1);

  // Phase 2: iterative sharpening. Random far partners pin each
  // coordinate only to within the far-field residual — many times the
  // distance to the true nearest peer. Each cycle re-anchors half of
  // every member's contact budget to its coordinate-nearest candidates
  // (discovered decentralized: its close neighbors' close neighbors
  // plus a random sample — free local computation over stored
  // coordinates), then relaxes with mixed close/random contact rounds.
  // Springs to progressively closer neighbors cascade the local error
  // down to the scale nearest-peer selection needs.
  const int cycles = n > 2 ? config_.sharpen_cycles : 0;
  const int total_polish = std::max(1, cycles * config_.sharpen_rounds);
  std::vector<std::vector<std::size_t>> prev_sets;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    prev_sets = close_sets;
    // Snapshot for the refresh: candidate ranking reads, and the
    // snap-and-refit writes, stay Jacobi (disjoint own-row writes
    // against frozen reads) so the parallel build is bit-identical.
    prev_coords = coords_;
    prev_errors = errors_;
    util::ParallelFor(0, n, num_threads, [&](std::size_t m) {
      util::Rng r(util::Mix64(base ^ kRefreshTag ^
                              static_cast<std::uint64_t>(ids[m]) ^
                              (static_cast<std::uint64_t>(cycle) << 48)));
      // Candidates: close neighbors, their close neighbors, and a
      // random escape sample — ranked by current coordinate distance.
      std::vector<std::size_t> candidates;
      for (std::size_t nb : prev_sets[m]) {
        candidates.push_back(nb);
        for (std::size_t nb2 : prev_sets[nb]) {
          candidates.push_back(nb2);
        }
      }
      const std::size_t cand = std::min<std::size_t>(
          static_cast<std::size_t>(kRefreshCandidates), n - 1);
      for (std::size_t s : r.Sample(n - 1, cand)) {
        candidates.push_back(s >= m ? s + 1 : s);
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      // Collapse the measurement ledger to min-rtt per slot, sorted
      // by slot for the lookups below.
      std::vector<std::pair<double, std::size_t>>& meas = measured_rtts[m];
      std::sort(meas.begin(), meas.end(),
                [](const auto& a, const auto& b) {
                  return a.second != b.second ? a.second < b.second
                                              : a.first < b.first;
                });
      meas.erase(std::unique(meas.begin(), meas.end(),
                             [](const auto& a, const auto& b) {
                               return a.second == b.second;
                             }),
                 meas.end());
      const auto measured_key = [&](std::size_t other) {
        const auto it = std::lower_bound(
            meas.begin(), meas.end(), other,
            [](const auto& entry, std::size_t slot) {
              return entry.second < slot;
            });
        return it != meas.end() && it->second == other
                   ? std::optional<double>(it->first)
                   : std::nullopt;
      };
      const double* self = &prev_coords[m * dims];
      const auto snapshot_distance = [&](std::size_t other) {
        double sq = 0.0;
        const double* row = &prev_coords[other * dims];
        for (std::size_t d = 0; d < dims; ++d) {
          sq += (self[d] - row[d]) * (self[d] - row[d]);
        }
        return std::sqrt(sq);
      };
      std::vector<std::pair<double, std::size_t>> ranked;
      ranked.reserve(candidates.size() + meas.size());
      for (std::size_t other : candidates) {
        if (other == m) {
          continue;
        }
        const auto key = measured_key(other);
        ranked.push_back({key ? *key : snapshot_distance(other), other});
      }
      // Measured contacts outside the candidate pool compete too —
      // keyed by their real rtt, which a misplaced coordinate cannot
      // outvote.
      for (const auto& entry : meas) {
        if (entry.second != m &&
            !std::binary_search(candidates.begin(), candidates.end(),
                                entry.second)) {
          ranked.push_back(entry);
        }
      }
      const std::size_t keep = std::min(half, ranked.size());
      std::partial_sort(ranked.begin(),
                        ranked.begin() + static_cast<long>(keep),
                        ranked.end());
      close_sets[m].assign(keep, 0);
      for (std::size_t t = 0; t < keep; ++t) {
        close_sets[m][t] = ranked[t].second;
      }
      // Snap-and-refit escape: when the member's own measurements
      // prove its coordinate wrong by more than 2x (it predicts a
      // measured ~rtt contact at many times that), no late-schedule
      // spring step can carry it home before ce decays away. Re-place
      // it like a joiner instead — init at the measured-nearest
      // contact's snapshot coordinate and spring-fit against the
      // measurement ledger (free local computation over already-paid
      // probes).
      if (!meas.empty()) {
        std::size_t nearest = 0;
        for (std::size_t e = 1; e < meas.size(); ++e) {
          if (meas[e].first < meas[nearest].first) {
            nearest = e;
          }
        }
        const double rtt = meas[nearest].first;
        const std::size_t anchor = meas[nearest].second;
        if (snapshot_distance(anchor) > 2.0 * rtt + 1.0) {
          double* row = &coords_[m * dims];
          const double* anchor_row = &prev_coords[anchor * dims];
          for (std::size_t d = 0; d < dims; ++d) {
            row[d] = anchor_row[d] + r.Gaussian(0.0, 0.25 * (rtt + 1.0));
          }
          errors_[m] = 0.5;
          for (int pass = 0; pass < kPlacementPasses; ++pass) {
            const double decay =
                1.0 - 0.9 * static_cast<double>(pass) / kPlacementPasses;
            for (const auto& entry : meas) {
              VivaldiSpringUpdate(
                  row, errors_[m], &prev_coords[entry.second * dims],
                  prev_errors[entry.second], entry.first,
                  config_.dimensions, kCe * decay, kCc, r);
            }
          }
        }
      }
      meas.clear();
    });
    // ce decays across the whole sharpening schedule, not per cycle.
    const double span = kCe * 0.4 - kCe * 0.05;
    const double ce_hi =
        kCe * 0.4 -
        span * static_cast<double>(cycle * config_.sharpen_rounds) /
            total_polish;
    const double ce_lo =
        kCe * 0.4 -
        span * static_cast<double>((cycle + 1) * config_.sharpen_rounds) /
            total_polish;
    run_rounds(config_.gossip_rounds + cycle * config_.sharpen_rounds,
               config_.sharpen_rounds, ce_hi, ce_lo,
               /*contacts_per_round=*/k);
  }
}

void CoordNearest::RelaxLandmarks(
    const std::vector<double>& pair_rtt,
    const std::vector<std::size_t>& landmark_slots, util::Rng& rng) {
  const std::size_t k = landmark_slots.size();
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  for (int it = 0; it < config_.landmark_iterations; ++it) {
    const double step =
        kLandmarkStep *
        (1.0 - 0.9 * static_cast<double>(it) / config_.landmark_iterations);
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = 0; b < k; ++b) {
        if (a == b || std::isnan(pair_rtt[a * k + b])) {
          continue;
        }
        LandmarkRelax(&coords_[landmark_slots[a] * dims],
                      &coords_[landmark_slots[b] * dims], pair_rtt[a * k + b],
                      config_.dimensions, step, rng);
      }
    }
  }
}

void CoordNearest::TrainLandmarks(std::uint64_t base, util::Rng& rng,
                                  int num_threads) {
  const std::vector<NodeId>& ids = members_.members();
  const std::size_t n = ids.size();
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  const core::ProbePolicy& policy = probe_policy();
  errors_.assign(n, 0.2);

  // Landmark election (serial draw: identical on both build paths).
  const std::size_t k = std::min<std::size_t>(
      static_cast<std::size_t>(config_.num_landmarks), n);
  std::vector<std::size_t> landmark_slots = rng.Sample(n, k);
  landmarks_.reserve(k);
  for (std::size_t slot : landmark_slots) {
    landmarks_.push_back(ids[slot]);
  }

  // The landmark set measures itself pairwise (billed); a lost pair
  // simply contributes no constraint to the fit.
  std::vector<double> pair_rtt(k * k,
                               std::numeric_limits<double>::quiet_NaN());
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b) {
      const auto measured =
          policy.Probe(*space_, landmarks_[a], landmarks_[b]);
      if (measured) {
        pair_rtt[a * k + b] = *measured;
        pair_rtt[b * k + a] = *measured;
      }
    }
  }
  for (std::size_t slot : landmark_slots) {
    util::Rng r(util::Mix64(base ^ kInitTag ^
                            static_cast<std::uint64_t>(ids[slot])));
    double* row = &coords_[slot * dims];
    for (std::size_t d = 0; d < dims; ++d) {
      row[d] = r.Gaussian(0.0, 10.0);
    }
  }
  util::Rng relax_rng(util::Mix64(base ^ kLandmarkTag));
  RelaxLandmarks(pair_rtt, landmark_slots, relax_rng);

  // Every other member measures the landmarks once (billed, the GNP
  // join protocol) and fits locally — per-member streams, disjoint
  // rows, parallel-safe.
  std::vector<char> is_landmark(n, 0);
  for (std::size_t slot : landmark_slots) {
    is_landmark[slot] = 1;
  }
  util::ParallelFor(0, n, num_threads, [&](std::size_t m) {
    if (is_landmark[m]) {
      return;
    }
    util::Rng r(util::Mix64(base ^ kPlaceTag ^
                            static_cast<std::uint64_t>(ids[m])));
    std::vector<std::pair<std::size_t, double>> measured;
    measured.reserve(k);
    for (std::size_t slot : landmark_slots) {
      const auto rtt = policy.Probe(*space_, ids[m], ids[slot]);
      if (rtt) {
        measured.push_back({slot, *rtt});
      }
    }
    double* row = &coords_[m * dims];
    for (std::size_t d = 0; d < dims; ++d) {
      row[d] = r.Gaussian(0.0, 10.0);
    }
    RelaxAgainst(row, errors_[m], measured, r);
  });
}

void CoordNearest::RelaxAgainst(
    double* self, double& self_error,
    const std::vector<std::pair<std::size_t, double>>& measured,
    util::Rng& rng) const {
  if (measured.empty()) {
    return;
  }
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  for (int pass = 0; pass < kPlacementPasses; ++pass) {
    const double decay =
        1.0 - 0.9 * static_cast<double>(pass) / kPlacementPasses;
    for (const auto& [slot, rtt] : measured) {
      if (config_.scheme == CoordScheme::kLandmark) {
        LandmarkRelax(self, &coords_[slot * dims], rtt, config_.dimensions,
                      kLandmarkStep * decay, rng);
      } else {
        VivaldiSpringUpdate(self, self_error, &coords_[slot * dims],
                            errors_[slot], rtt, config_.dimensions,
                            kCe * decay, kCc, rng);
      }
    }
  }
}

std::vector<NodeId> CoordNearest::ComputeLinks(std::size_t slot,
                                               util::Rng& rng) const {
  const std::vector<NodeId>& ids = members_.members();
  const std::size_t n = ids.size();
  std::vector<NodeId> links;
  if (n < 2) {
    return links;
  }
  const std::size_t k_cand = std::min<std::size_t>(
      static_cast<std::size_t>(kLinkCandidates), n - 1);
  const std::vector<std::size_t> sample = rng.Sample(n - 1, k_cand);
  std::vector<std::pair<double, NodeId>> ranked;
  ranked.reserve(k_cand);
  const double* self =
      &coords_[slot * static_cast<std::size_t>(config_.dimensions)];
  std::vector<std::size_t> candidate_slots;
  candidate_slots.reserve(k_cand);
  for (std::size_t s : sample) {
    const std::size_t other = s >= slot ? s + 1 : s;
    candidate_slots.push_back(other);
    ranked.push_back({DistanceToSlot(self, other), ids[other]});
  }
  const std::size_t keep = std::min<std::size_t>(
      static_cast<std::size_t>(kWalkNeighbors), ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(keep),
                    ranked.end());
  links.reserve(keep + static_cast<std::size_t>(kRandomLinks));
  for (std::size_t t = 0; t < keep; ++t) {
    links.push_back(ranked[t].second);
  }
  // Escape links: the first sampled candidates not already kept (the
  // sample is random, so these are uniform random links).
  for (std::size_t c :
       candidate_slots) {
    if (static_cast<int>(links.size()) >=
        kWalkNeighbors + kRandomLinks) {
      break;
    }
    if (std::find(links.begin(), links.end(), ids[c]) == links.end()) {
      links.push_back(ids[c]);
    }
  }
  return links;
}

void CoordNearest::BuildLinks(std::uint64_t base, int num_threads) {
  const std::vector<NodeId>& ids = members_.members();
  const std::size_t n = ids.size();
  links_.assign(n, {});
  util::ParallelFor(0, n, num_threads, [&](std::size_t m) {
    util::Rng r(util::Mix64(base ^ kLinkTag ^
                            static_cast<std::uint64_t>(ids[m])));
    links_[m] = ComputeLinks(m, r);
  });

  // One-shot sampled kNN links mostly miss the true coordinate-nearest
  // neighbors (each is in the sample with probability
  // kLinkCandidates/n), and greedy walks stall on the resulting weak
  // graph. Refine decentralized: each pass re-ranks every member's
  // links against its links' links plus a fresh random sample — the
  // same neighbor-of-neighbor discovery the gossip sharpening uses —
  // over Jacobi snapshots (bit-identical for any thread count). Free
  // local computation over stored coordinates.
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  constexpr int kLinkRefinePasses = 3;
  std::vector<std::vector<NodeId>> prev_links;
  for (int pass = 0; pass < kLinkRefinePasses; ++pass) {
    prev_links = links_;
    util::ParallelFor(0, n, num_threads, [&](std::size_t m) {
      util::Rng r(util::Mix64(base ^ kLinkTag ^
                              static_cast<std::uint64_t>(ids[m]) ^
                              (static_cast<std::uint64_t>(pass + 1) << 48)));
      std::vector<std::size_t> candidates;
      for (NodeId nb : prev_links[m]) {
        const std::size_t nb_slot = members_.PositionOf(nb);
        candidates.push_back(nb_slot);
        for (NodeId nb2 : prev_links[nb_slot]) {
          candidates.push_back(members_.PositionOf(nb2));
        }
      }
      const std::size_t cand = std::min<std::size_t>(
          static_cast<std::size_t>(kLinkCandidates), n - 1);
      for (std::size_t s : r.Sample(n - 1, cand)) {
        candidates.push_back(s >= m ? s + 1 : s);
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      std::vector<std::pair<double, NodeId>> ranked;
      ranked.reserve(candidates.size());
      const double* self = &coords_[m * dims];
      for (std::size_t other : candidates) {
        if (other == m) {
          continue;
        }
        ranked.push_back({DistanceToSlot(self, other), ids[other]});
      }
      const std::size_t keep = std::min<std::size_t>(
          static_cast<std::size_t>(kWalkNeighbors), ranked.size());
      std::partial_sort(ranked.begin(),
                        ranked.begin() + static_cast<long>(keep),
                        ranked.end());
      std::vector<NodeId> refined;
      refined.reserve(keep + static_cast<std::size_t>(kRandomLinks));
      for (std::size_t t = 0; t < keep; ++t) {
        refined.push_back(ranked[t].second);
      }
      // Keep random escape links so walks can cross the space.
      const std::size_t escapes =
          std::min<std::size_t>(static_cast<std::size_t>(kRandomLinks), n - 1);
      for (std::size_t s : r.Sample(n - 1, escapes)) {
        const std::size_t other = s >= m ? s + 1 : s;
        if (std::find(refined.begin(), refined.end(), ids[other]) ==
            refined.end()) {
          refined.push_back(ids[other]);
        }
      }
      links_[m] = std::move(refined);
    });
  }
}

bool CoordNearest::PlaceTarget(NodeId target,
                               const core::MeteredSpace& metered,
                               util::Rng& rng,
                               std::vector<double>& coordinate,
                               std::uint64_t& probes) const {
  const std::vector<NodeId>& ids = members_.members();
  const std::size_t n = ids.size();
  const core::ProbePolicy& policy = probe_policy();
  std::vector<std::pair<std::size_t, double>> measured;

  if (config_.scheme == CoordScheme::kLandmark) {
    measured.reserve(landmarks_.size());
    for (NodeId lm : landmarks_) {
      const auto rtt = policy.Probe(metered, lm, target);
      ++probes;
      if (rtt) {
        measured.push_back({members_.PositionOf(lm), *rtt});
      }
    }
  } else {
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(kPlacementSamples), n);
    measured.reserve(k);
    for (std::size_t slot : rng.Sample(n, k)) {
      const auto rtt = policy.Probe(metered, ids[slot], target);
      ++probes;
      if (rtt) {
        measured.push_back({slot, *rtt});
      }
    }
  }

  const double init_sigma =
      config_.scheme == CoordScheme::kLandmark ? 10.0 : 1.0;
  coordinate.assign(static_cast<std::size_t>(config_.dimensions), 0.0);
  for (double& c : coordinate) {
    c = rng.Gaussian(0.0, init_sigma);
  }
  if (measured.empty()) {
    // Every placement probe was lost: the query cannot be positioned.
    return false;
  }
  double error = 1.0;
  RelaxAgainst(coordinate.data(), error, measured, rng);
  return true;
}

core::QueryResult CoordNearest::FindNearest(NodeId target,
                                            const core::MeteredSpace& metered,
                                            util::Rng& rng) {
  NP_ENSURE(space_ != nullptr, "Build must run before FindNearest");
  core::QueryResult result;
  const std::vector<NodeId>& ids = members_.members();
  const std::size_t n = ids.size();
  const core::ProbePolicy& policy = probe_policy();

  std::vector<double> target_coord;
  if (!PlaceTarget(target, metered, rng, target_coord, result.probes)) {
    return result;  // unplaceable target: the query fails honestly
  }

  // Candidate selection: nearest in coordinate space.
  std::vector<std::pair<double, NodeId>> candidates;
  if (config_.scheme == CoordScheme::kPic) {
    // Greedy walks over the link graph; candidates are the walk
    // endpoints plus their link neighborhoods (a decentralized node
    // sees only its links, not a global coordinate directory).
    std::vector<NodeId> seen;
    for (int walk = 0; walk < kNumWalks; ++walk) {
      std::size_t current = rng.Index(n);
      double current_predicted = DistanceToSlot(target_coord.data(), current);
      for (int hop = 0; hop < kMaxWalkHops; ++hop) {
        std::size_t best = current;
        double best_predicted = current_predicted;
        for (NodeId link : links_[current]) {
          const std::size_t slot = members_.PositionOf(link);
          if (slot == core::MemberIndex::kNoPosition) {
            continue;  // departed neighbor: stale entry, skip
          }
          const double predicted =
              DistanceToSlot(target_coord.data(), slot);
          if (predicted < best_predicted ||
              (predicted == best_predicted && link < ids[best])) {
            best_predicted = predicted;
            best = slot;
          }
        }
        if (best == current) {
          break;
        }
        current = best;
        current_predicted = best_predicted;
        ++result.hops;
      }
      seen.push_back(ids[current]);
      for (NodeId link : links_[current]) {
        if (members_.Contains(link)) {
          seen.push_back(link);
        }
      }
    }
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    candidates.reserve(seen.size());
    for (NodeId node : seen) {
      if (node == target) {
        continue;
      }
      candidates.push_back(
          {DistanceToSlot(target_coord.data(), members_.PositionOf(node)),
           node});
    }
  } else {
    // Coordinate directory scan — free local computation over O(n)
    // stored coordinates (the directory assumption the gossip/landmark
    // schemes make; PIC above refuses it and pays in hops).
    candidates.reserve(n);
    for (std::size_t m = 0; m < n; ++m) {
      if (ids[m] == target) {
        continue;
      }
      candidates.push_back({DistanceToSlot(target_coord.data(), m), ids[m]});
    }
  }

  const std::size_t keep = std::min<std::size_t>(
      static_cast<std::size_t>(kRefineCandidates), candidates.size());
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<long>(keep),
                    candidates.end());

  // Refinement: the coordinates nominated, real probes decide.
  for (std::size_t t = 0; t < keep; ++t) {
    const NodeId candidate = candidates[t].second;
    const auto measured = policy.Probe(metered, candidate, target);
    ++result.probes;
    if (!measured) {
      continue;  // unreachable candidate: route around it
    }
    if (*measured < result.found_latency_ms ||
        (*measured == result.found_latency_ms &&
         candidate < result.found)) {
      result.found_latency_ms = *measured;
      result.found = candidate;
    }
  }
  return result;
}

void CoordNearest::LinkJoiner(std::size_t slot, util::Rng& rng) {
  const std::vector<NodeId>& ids = members_.members();
  const NodeId id = ids[slot];
  links_[slot] = ComputeLinks(slot, rng);

  // Reverse edges so walks can reach the joiner; lists are capped by
  // evicting the coordinate-farthest entry (stale entries first), so
  // long churn cannot grow them without bound.
  const std::size_t cap =
      static_cast<std::size_t>(kWalkNeighbors + kRandomLinks) + 4;
  for (NodeId neighbor : links_[slot]) {
    const std::size_t ns = members_.PositionOf(neighbor);
    if (ns == core::MemberIndex::kNoPosition) {
      continue;
    }
    std::vector<NodeId>& list = links_[ns];
    if (std::find(list.begin(), list.end(), id) != list.end()) {
      continue;
    }
    list.push_back(id);
    if (list.size() <= cap) {
      continue;
    }
    const double* self =
        &coords_[ns * static_cast<std::size_t>(config_.dimensions)];
    std::size_t evict = 0;
    double evict_dist = -1.0;
    for (std::size_t e = 0; e < list.size(); ++e) {
      const std::size_t es = members_.PositionOf(list[e]);
      const double dist =
          es == core::MemberIndex::kNoPosition
              ? std::numeric_limits<double>::infinity()
              : DistanceToSlot(self, es);
      if (dist > evict_dist ||
          (dist == evict_dist && list[e] > list[evict])) {
        evict_dist = dist;
        evict = e;
      }
    }
    list[evict] = list.back();
    list.pop_back();
  }
}

void CoordNearest::GossipRefresh(util::Rng& rng) {
  const std::vector<NodeId>& ids = members_.members();
  const std::size_t n = ids.size();
  if (n < 2) {
    return;
  }
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  const core::ProbePolicy& policy = probe_policy();
  for (int g = 0; g < kGossipProbesPerEvent; ++g) {
    if (config_.scheme == CoordScheme::kLandmark) {
      if (landmarks_.empty()) {
        return;
      }
      const std::size_t slot = rng.Index(n);
      const NodeId lm = landmarks_[rng.Index(landmarks_.size())];
      if (ids[slot] == lm) {
        continue;
      }
      const auto measured = policy.Probe(*space_, ids[slot], lm);
      if (!measured) {
        continue;
      }
      LandmarkRelax(&coords_[slot * dims],
                    &coords_[members_.PositionOf(lm) * dims], *measured,
                    config_.dimensions, kLandmarkStep * kGossipCeFrac, rng);
    } else {
      const std::size_t a = rng.Index(n);
      std::size_t b = rng.Index(n - 1);
      if (b >= a) {
        ++b;
      }
      const auto measured = policy.Probe(*space_, ids[a], ids[b]);
      if (!measured) {
        continue;
      }
      VivaldiSpringUpdate(&coords_[a * dims], errors_[a],
                          &coords_[b * dims], errors_[b], *measured,
                          config_.dimensions, kCe * kGossipCeFrac,
                          kCc, rng);
    }
  }
}

void CoordNearest::AddMember(NodeId node, util::Rng& rng) {
  NP_ENSURE(space_ != nullptr, "Build must run before AddMember");
  const std::size_t old_n = members_.size();
  const std::size_t slot = members_.Add(node);  // throws on double-add
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  coords_.resize(coords_.size() + dims, 0.0);
  errors_.push_back(1.0);
  if (config_.scheme == CoordScheme::kPic) {
    links_.emplace_back();
  }
  const std::vector<NodeId>& ids = members_.members();
  const core::ProbePolicy& policy = probe_policy();

  // Bootstrap: the joiner measures a sampled handful of members (the
  // landmark scheme: the landmarks) and fits its coordinate locally.
  std::vector<std::pair<std::size_t, double>> measured;
  if (config_.scheme == CoordScheme::kLandmark) {
    measured.reserve(landmarks_.size());
    for (NodeId lm : landmarks_) {
      const auto rtt = policy.Probe(*space_, node, lm);
      if (rtt) {
        measured.push_back({members_.PositionOf(lm), *rtt});
      }
    }
  } else if (old_n >= 1) {
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(kJoinSamples), old_n);
    measured.reserve(k);
    for (std::size_t s : rng.Sample(old_n, k)) {
      const auto rtt = policy.Probe(*space_, node, ids[s]);
      if (rtt) {
        measured.push_back({s, *rtt});
      }
    }
  }
  const double init_sigma =
      config_.scheme == CoordScheme::kLandmark ? 10.0 : 1.0;
  double* row = &coords_[slot * dims];
  for (std::size_t d = 0; d < dims; ++d) {
    row[d] = rng.Gaussian(0.0, init_sigma);
  }
  // All bootstrap probes lost: the joiner keeps its random placement
  // (error stays 1.0) until keep-fresh gossip repositions it.
  RelaxAgainst(row, errors_[slot], measured, rng);
  if (!measured.empty()) {
    errors_[slot] = config_.scheme == CoordScheme::kLandmark ? 0.2 : 0.5;
  }

  if (config_.scheme == CoordScheme::kPic) {
    LinkJoiner(slot, rng);
  }
  GossipRefresh(rng);
}

void CoordNearest::RemoveMember(NodeId node) {
  NP_ENSURE(members_.size() > 1, "cannot remove the last member");
  const auto removed = members_.Remove(node);  // throws when not a member
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  const std::size_t last = members_.size();  // slot the old last row held
  if (removed.swapped) {
    for (std::size_t d = 0; d < dims; ++d) {
      coords_[removed.position * dims + d] = coords_[last * dims + d];
    }
    errors_[removed.position] = errors_[last];
    if (config_.scheme == CoordScheme::kPic) {
      links_[removed.position] = std::move(links_[last]);
    }
  }
  coords_.resize(last * dims);
  errors_.pop_back();
  if (config_.scheme == CoordScheme::kPic) {
    links_.pop_back();
  }
  // Stale references to `node` in other members' link lists are
  // filtered lazily at query/walk time via the member index.

  // A departing landmark takes the scheme's reference frame with it:
  // promote the lowest-id non-landmark member, which measures the
  // surviving landmarks (billed) and re-fits its coordinate.
  if (config_.scheme == CoordScheme::kLandmark) {
    const auto it = std::find(landmarks_.begin(), landmarks_.end(), node);
    if (it != landmarks_.end()) {
      NodeId replacement = kInvalidNode;
      for (const NodeId candidate : members_.members()) {
        if (std::find(landmarks_.begin(), landmarks_.end(), candidate) !=
            landmarks_.end()) {
          continue;
        }
        if (replacement == kInvalidNode || candidate < replacement) {
          replacement = candidate;
        }
      }
      if (replacement == kInvalidNode) {
        landmarks_.erase(it);
      } else {
        *it = replacement;
        const core::ProbePolicy& policy = probe_policy();
        std::vector<std::pair<std::size_t, double>> measured;
        measured.reserve(landmarks_.size());
        for (NodeId lm : landmarks_) {
          if (lm == replacement) {
            continue;
          }
          const auto rtt = policy.Probe(*space_, replacement, lm);
          if (rtt) {
            measured.push_back({members_.PositionOf(lm), *rtt});
          }
        }
        const std::size_t slot = members_.PositionOf(replacement);
        RelaxAgainst(&coords_[slot * dims], errors_[slot], measured,
                     churn_rng_);
        errors_[slot] = 0.2;
      }
    }
  }
  GossipRefresh(churn_rng_);
}

}  // namespace np::algos
