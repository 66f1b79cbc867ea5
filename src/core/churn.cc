#include "core/churn.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "util/error.h"

namespace np::core {

namespace {

/// One session length per the configured model. Every model is scaled
/// so its mean equals mean_session_s; the shape parameter only
/// reshapes the tail around that mean.
double SampleSession(const ChurnScheduleConfig& config, util::Rng& rng) {
  switch (config.session_model) {
    case SessionModel::kExponential:
      return rng.Exponential(config.mean_session_s);
    case SessionModel::kLogNormal: {
      // mean = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
      const double sigma = config.lognormal_sigma;
      const double mu =
          std::log(config.mean_session_s) - 0.5 * sigma * sigma;
      return rng.LogNormal(mu, sigma);
    }
    case SessionModel::kPareto: {
      // mean = alpha * x_m / (alpha - 1)  =>  x_m = mean*(alpha-1)/alpha.
      const double alpha = config.pareto_alpha;
      const double scale =
          config.mean_session_s * (alpha - 1.0) / alpha;
      return rng.Pareto(alpha, scale);
    }
  }
  NP_ENSURE(false, "unknown session model");
  return 0.0;
}

/// Arrival-rate multiplier of an enabled wave at simulated time `t`.
double DiurnalMultiplier(const DiurnalConfig& config, double t) {
  const double cycles = t / config.day_s;
  double frac = cycles - std::floor(cycles);
  if (frac < 0.0) {
    frac += 1.0;
  }
  return 1.0 + config.amplitude *
                   std::cos(2.0 * std::numbers::pi *
                            (frac - config.peak_frac));
}

}  // namespace

ChurnStats& ChurnStats::operator+=(const ChurnStats& other) {
  joins += other.joins;
  leaves += other.leaves;
  crashes += other.crashes;
  skipped += other.skipped;
  return *this;
}

ChurnSchedule ChurnSchedule::Poisson(const ChurnScheduleConfig& config) {
  NP_ENSURE(config.duration_s > 0.0, "duration must be positive");
  NP_ENSURE(config.events_per_s > 0.0, "event rate must be positive");
  NP_ENSURE(config.join_fraction >= 0.0 && config.join_fraction <= 1.0,
            "join fraction must be a probability");
  NP_ENSURE(config.mean_session_s >= 0.0,
            "mean session length must be non-negative");
  NP_ENSURE(config.crash_fraction >= 0.0 && config.crash_fraction <= 1.0,
            "crash fraction must be a probability");
  if (config.mean_session_s > 0.0) {
    NP_ENSURE(config.session_model != SessionModel::kLogNormal ||
                  config.lognormal_sigma > 0.0,
              "lognormal sigma must be positive");
    NP_ENSURE(config.session_model != SessionModel::kPareto ||
                  config.pareto_alpha > 1.0,
              "pareto alpha must exceed 1 (finite mean)");
  }
  const bool modulated = config.diurnal.day_s > 0.0;
  NP_ENSURE(!modulated || (config.diurnal.amplitude >= 0.0 &&
                           config.diurnal.amplitude <= 1.0),
            "diurnal amplitude must be in [0, 1]");

  // Thinning (Lewis-Shedler): candidate arrivals at the peak rate, the
  // largest multiplier the sinusoid reaches; candidate k keeps its slot
  // with probability rate(t_k)/rate_max. Arrival k draws everything
  // from its own Mix64(base ^ k) stream, so the schedule is a pure
  // function of the config.
  const double max_multiplier =
      modulated ? 1.0 + config.diurnal.amplitude : 1.0;
  const double rate_max = config.events_per_s * max_multiplier;
  const std::uint64_t base = util::Mix64(config.seed ^ 0xC4A21ULL);

  ChurnSchedule schedule;
  schedule.duration_s_ = config.duration_s;

  if (config.mean_session_s <= 0.0) {
    // Fixed-mix mode: each arrival is independently a join or a leave.
    double t = 0.0;
    for (std::uint64_t k = 0;; ++k) {
      util::Rng rng(util::Mix64(base ^ k));
      t += rng.Exponential(1.0 / rate_max);
      if (t > config.duration_s) {
        break;
      }
      if (modulated &&
          rng.NextDouble() * max_multiplier >=
              DiurnalMultiplier(config.diurnal, t)) {
        continue;  // thinned: this candidate slot stays empty
      }
      ChurnEvent event;
      event.time_s = t;
      event.type = rng.Bernoulli(config.join_fraction)
                       ? ChurnEventType::kJoin
                       : ChurnEventType::kLeave;
      // The crash Bernoulli is drawn only when enabled, so schedules
      // with crash_fraction == 0 are bit-identical to pre-fault ones
      // (the draw lives in this event's private stream either way).
      if (event.type == ChurnEventType::kLeave &&
          config.crash_fraction > 0.0 &&
          rng.Bernoulli(config.crash_fraction)) {
        event.type = ChurnEventType::kCrash;
      }
      schedule.events_.push_back(event);
    }
    return schedule;
  }

  // Session mode: arrivals are joins; each join's node stays for a
  // session drawn from the configured model and then leaves (leaves
  // past the horizon never fire — with a heavy-tailed model a sizable
  // core simply outlives the experiment).
  struct SessionLeave {
    double time_s;
    std::size_t join_ordinal;
    bool crashed;
  };
  std::vector<ChurnEvent> joins;
  std::vector<SessionLeave> leaves;
  double t = 0.0;
  for (std::uint64_t k = 0;; ++k) {
    util::Rng rng(util::Mix64(base ^ k));
    t += rng.Exponential(1.0 / rate_max);
    if (t > config.duration_s) {
      break;
    }
    if (modulated &&
        rng.NextDouble() * max_multiplier >=
            DiurnalMultiplier(config.diurnal, t)) {
      continue;
    }
    ChurnEvent join;
    join.time_s = t;
    join.type = ChurnEventType::kJoin;
    const double departure = t + SampleSession(config, rng);
    if (departure <= config.duration_s) {
      const bool crashed = config.crash_fraction > 0.0 &&
                           rng.Bernoulli(config.crash_fraction);
      leaves.push_back(SessionLeave{departure, joins.size(), crashed});
    }
    joins.push_back(join);
  }
  std::sort(leaves.begin(), leaves.end(),
            [](const SessionLeave& a, const SessionLeave& b) {
              return a.time_s < b.time_s;
            });

  // Merge joins (already time-ordered) with leaves; a leave's time is
  // strictly after its join's, so by the time a leave is placed its
  // join's final index is known.
  std::vector<std::int64_t> join_final_index(joins.size(), -1);
  std::size_t ji = 0;
  std::size_t li = 0;
  while (ji < joins.size() || li < leaves.size()) {
    const bool take_join =
        li >= leaves.size() ||
        (ji < joins.size() && joins[ji].time_s <= leaves[li].time_s);
    if (take_join) {
      join_final_index[ji] =
          static_cast<std::int64_t>(schedule.events_.size());
      schedule.events_.push_back(joins[ji]);
      ++ji;
    } else {
      ChurnEvent leave;
      leave.time_s = leaves[li].time_s;
      leave.type = leaves[li].crashed ? ChurnEventType::kCrash
                                      : ChurnEventType::kLeave;
      leave.join_of = join_final_index[leaves[li].join_ordinal];
      NP_ENSURE(leave.join_of >= 0, "session leave placed before its join");
      schedule.events_.push_back(leave);
      ++li;
    }
  }
  return schedule;
}

ChurnSchedule ChurnSchedule::FromTrace(std::vector<ChurnEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.time_s < b.time_s;
                   });
  ChurnSchedule schedule;
  for (std::size_t i = 0; i < events.size(); ++i) {
    NP_ENSURE(events[i].time_s >= 0.0, "event times must be non-negative");
    NP_ENSURE(events[i].node == kInvalidNode ||
                  events[i].type != ChurnEventType::kJoin,
              "explicit victims are only meaningful on leaves/crashes");
    if (events[i].join_of >= 0) {
      NP_ENSURE(events[i].type != ChurnEventType::kJoin,
                "join_of is only meaningful on leaves/crashes");
      NP_ENSURE(static_cast<std::size_t>(events[i].join_of) < i &&
                    events[static_cast<std::size_t>(events[i].join_of)]
                            .type == ChurnEventType::kJoin,
                "join_of must name an earlier join in the sorted trace");
    }
  }
  schedule.duration_s_ = events.empty() ? 0.0 : events.back().time_s;
  schedule.events_ = std::move(events);
  return schedule;
}

ChurnDriver::ChurnDriver(NearestPeerAlgorithm* algo,
                         std::vector<NodeId> members, std::vector<NodeId> pool,
                         std::uint64_t seed)
    : algo_(algo),
      members_(std::move(members)),
      pool_(std::move(pool)),
      seed_(seed) {
  NP_ENSURE(!members_.empty(), "need an initial membership");
  member_pos_.reserve(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    member_pos_[members_[i]] = i;
  }
  NP_ENSURE(member_pos_.size() == members_.size(),
            "duplicate initial members");
}

ChurnStats ChurnDriver::ApplyUntil(const ChurnSchedule& schedule,
                                   double time_s) {
  ChurnStats stats;
  const auto& events = schedule.events();
  while (next_ < events.size() && events[next_].time_s <= time_s) {
    ApplyEvent(events[next_], next_, stats);
    ++next_;
  }
  return stats;
}

ChurnStats ChurnDriver::ApplyAll(const ChurnSchedule& schedule) {
  ChurnStats stats;
  const auto& events = schedule.events();
  while (next_ < events.size()) {
    ApplyEvent(events[next_], next_, stats);
    ++next_;
  }
  return stats;
}

void ChurnDriver::ApplyEvent(const ChurnEvent& event, std::size_t index,
                             ChurnStats& stats) {
  // Per-event randomness: a pure function of (seed, index), never of
  // how many events ran before — this is what makes chunked
  // application equal straight-through application.
  util::Rng erng(util::Mix64(seed_ ^ static_cast<std::uint64_t>(index)));

  switch (event.type) {
    case ChurnEventType::kJoin: {
      if (pool_.size() <= 1) {
        // Keep at least one non-member as a query target.
        ++stats.skipped;
        return;
      }
      const std::size_t pick = erng.Index(pool_.size());
      const NodeId node = pool_[pick];
      pool_[pick] = pool_.back();
      pool_.pop_back();
      Join(node, erng);
      join_node_[static_cast<std::int64_t>(index)] = node;
      ++stats.joins;
      return;
    }
    case ChurnEventType::kLeave:
    case ChurnEventType::kCrash: {
      if (members_.size() <= 2) {
        // Membership floor: an overlay of one cannot answer queries
        // about "the closest *other* peer".
        ++stats.skipped;
        return;
      }
      NodeId node = kInvalidNode;
      if (event.node != kInvalidNode) {
        if (member_pos_.find(event.node) == member_pos_.end()) {
          ++stats.skipped;  // named victim is not (or no longer) a member
          return;
        }
        node = event.node;
      } else if (event.join_of >= 0) {
        const auto it = join_node_.find(event.join_of);
        if (it == join_node_.end() ||
            member_pos_.find(it->second) == member_pos_.end()) {
          ++stats.skipped;  // the session's node never joined / left early
          return;
        }
        node = it->second;
      } else {
        node = members_[erng.Index(members_.size())];
      }
      if (event.type == ChurnEventType::kLeave) {
        Leave(node);
        pool_.push_back(node);
        ++stats.leaves;
      } else {
        Crash(node);
        ++stats.crashes;
      }
      return;
    }
  }
  NP_ENSURE(false, "unknown churn event type");
}

void ChurnDriver::Join(NodeId node, util::Rng& rng) {
  NP_ENSURE(member_pos_.find(node) == member_pos_.end(),
            "joining node is already a member");
  member_pos_[node] = members_.size();
  members_.push_back(node);
  if (algo_ != nullptr) {
    algo_->AddMember(node, rng);
  }
}

void ChurnDriver::Drop(NodeId node) {
  const auto it = member_pos_.find(node);
  NP_ENSURE(it != member_pos_.end(), "departing node is not a member");
  const std::size_t position = it->second;
  const std::size_t last = members_.size() - 1;
  if (position != last) {
    members_[position] = members_[last];
    member_pos_[members_[position]] = position;
  }
  members_.pop_back();
  member_pos_.erase(it);
}

void ChurnDriver::Leave(NodeId node) {
  Drop(node);
  if (algo_ != nullptr) {
    algo_->RemoveMember(node);
  }
}

void ChurnDriver::Crash(NodeId node) {
  // Like Leave, but: no RemoveMember (nobody was told), no return to
  // the pool (the host is gone for good, and a pooled copy could
  // rejoin while its stale overlay entries still linger).
  Drop(node);
  crashed_.insert(node);
  pending_repairs_.push_back(node);
}

bool ChurnDriver::ForceCrash(NodeId node) {
  if (members_.size() <= 2 || member_pos_.find(node) == member_pos_.end()) {
    return false;
  }
  Crash(node);
  return true;
}

std::vector<NodeId> ChurnDriver::TakePendingRepairs() {
  std::vector<NodeId> out;
  out.swap(pending_repairs_);
  return out;
}

}  // namespace np::core
