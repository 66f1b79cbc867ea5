// Event-driven churn over a live overlay.
//
// The paper's §4 simulations are static snapshots; real overlays see
// continuous joins and leaves, and fault-tolerant routing work treats
// churn resilience as the axis separating deployable designs from
// simulator toys. This layer generates join/leave event schedules
// (Poisson arrivals with either a fixed join fraction or per-join
// session lengths — exponential, lognormal, or Pareto — optionally
// under diurnal arrival-rate modulation, or an explicit trace) and
// applies them to a live
// membership set — incrementally for algorithms that support churn.
//
// Determinism contract (matches the PR-1 query loop): every event
// resolves its randomness from an Rng seeded `Mix64(seed ^
// event_index)`, so applying events [0, n) in one pass is bit-identical
// to applying [0, k) and then resuming [k, n) — schedules are
// resumable, and epoch-chunked application (the scenario engine) equals
// straight-through application.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/nearest_algorithm.h"
#include "util/rng.h"
#include "util/types.h"

namespace np::core {

/// kCrash is a leave without notice: the node stops answering probes
/// immediately but no RemoveMember runs — overlay entries linger until
/// a failed probe exposes them and a billed repair purges them.
enum class ChurnEventType { kJoin, kLeave, kCrash };

struct ChurnEvent {
  double time_s = 0.0;
  ChurnEventType type = ChurnEventType::kJoin;
  /// Session-style leaves/crashes name the join event whose node
  /// departs (index into the schedule); -1 means "a uniformly random
  /// live member departs".
  std::int64_t join_of = -1;
  /// Explicit victim for leave/crash trace events (regional blackouts
  /// name every node of a cluster); kInvalidNode defers to join_of or
  /// the uniform draw. Takes precedence over join_of. If the named node
  /// is not currently a member the event is skipped.
  NodeId node = kInvalidNode;
};

/// Session-length distribution for session-mode schedules. All three
/// models are parameterized so that the mean session length equals
/// ChurnScheduleConfig::mean_session_s; the shape parameters control
/// how heavy the tail is at that fixed mean.
enum class SessionModel {
  /// Exponential(mean): the classic memoryless churn model.
  kExponential,
  /// exp(N(mu, sigma)) with mu = ln(mean) - sigma^2/2. Measurement
  /// studies of deployed overlays consistently find session lengths
  /// closer to lognormal than exponential.
  kLogNormal,
  /// Pareto(alpha, x_m) with x_m = mean * (alpha - 1) / alpha.
  /// Power-law tail: a small core of near-permanent peers carries the
  /// overlay while most sessions are short. Requires alpha > 1 (finite
  /// mean).
  kPareto,
};

/// Correlated (time-of-day) arrival-rate modulation. The arrival
/// process becomes an inhomogeneous Poisson process with
///   rate(t) = events_per_s * multiplier(t mod day_s)
/// realized by Lewis-Shedler thinning, so it composes with every
/// session model (and with fixed-mix mode) unchanged.
struct DiurnalConfig {
  /// Day length in simulated seconds; <= 0 disables modulation.
  double day_s = 0.0;
  /// multiplier(t) = 1 + amplitude * cos(2*pi * (t/day_s - peak_frac)).
  /// Amplitude must be in [0, 1]; over whole days the mean rate
  /// integrates back to events_per_s exactly.
  double amplitude = 0.8;
  /// Time-of-day of the arrival peak, as a fraction of the day.
  double peak_frac = 0.5;
};

struct ChurnScheduleConfig {
  /// Simulated horizon, seconds.
  double duration_s = 600.0;
  /// Poisson arrival rate of events (session mode: of *joins*). With
  /// diurnal modulation this is the base rate the multiplier scales.
  double events_per_s = 1.0;
  /// Probability an event is a join. Ignored in session mode.
  double join_fraction = 0.5;
  /// > 0 switches to session mode: every arrival is a join whose node
  /// stays for a session drawn from `session_model` (mean
  /// mean_session_s), after which a leave for that exact node is
  /// scheduled.
  double mean_session_s = 0.0;
  /// Session-length distribution (session mode only).
  SessionModel session_model = SessionModel::kExponential;
  /// Sigma of the underlying normal for SessionModel::kLogNormal;
  /// larger = heavier tail at the same mean. Must be > 0.
  double lognormal_sigma = 1.0;
  /// Tail exponent for SessionModel::kPareto; must be > 1 (finite
  /// mean). Smaller = heavier tail.
  double pareto_alpha = 2.5;
  /// Probability a departure is a crash (no notify) instead of a
  /// graceful leave. Applies to fixed-mix leaves and session ends
  /// alike. The extra Bernoulli is only drawn when > 0, so schedules
  /// generated with 0 are bit-identical to pre-fault ones.
  double crash_fraction = 0.0;
  /// Time-of-day arrival modulation; day_s <= 0 disables.
  DiurnalConfig diurnal;
  std::uint64_t seed = 1;
};

/// An immutable, time-sorted list of churn events.
class ChurnSchedule {
 public:
  /// (In)homogeneous Poisson/session process per the config. Arrival
  /// k resolves all of its randomness (interarrival gap, thinning
  /// acceptance, join/leave mix or session length) from an Rng seeded
  /// `Mix64(base ^ k)`, so generation is a pure function of the config
  /// — mirroring the per-event streams the driver uses for
  /// application.
  static ChurnSchedule Poisson(const ChurnScheduleConfig& config);

  /// Explicit trace (replayed measurement traces, adversarial
  /// scenarios like flash crowds). Events are stably sorted by time;
  /// join_of indices refer to positions in the *sorted* schedule and
  /// must point at earlier join events.
  static ChurnSchedule FromTrace(std::vector<ChurnEvent> events);

  const std::vector<ChurnEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  /// Horizon: configured duration (Poisson) or last event time (trace).
  double duration_s() const { return duration_s_; }

 private:
  ChurnSchedule() = default;

  std::vector<ChurnEvent> events_;
  double duration_s_ = 0.0;
};

/// Tally of one application pass. 64-bit: long horizons at n = 10^5
/// scale produce event counts a 32-bit tally can overflow.
struct ChurnStats {
  std::int64_t joins = 0;
  std::int64_t leaves = 0;
  /// Departures without notice (see ChurnEventType::kCrash).
  std::int64_t crashes = 0;
  /// Events that resolved to no-ops: joins with an exhausted pool,
  /// leaves at the membership floor, session leaves whose node already
  /// left.
  std::int64_t skipped = 0;

  ChurnStats& operator+=(const ChurnStats& other);
};

/// Applies a schedule's events, in order, to a membership/pool pair —
/// and, when constructed with a churn-capable algorithm, to the
/// algorithm's overlay state via AddMember/RemoveMember. The driver is
/// resumable: ApplyUntil advances an internal cursor, and chunked
/// application is bit-identical to one straight-through pass.
class ChurnDriver {
 public:
  /// `algo` may be null: membership-only tracking (the scenario engine
  /// uses this for algorithms that rebuild per epoch instead).
  /// `members` and `pool` are disjoint; pool nodes are join candidates
  /// and query targets. `seed` is the per-event randomness base.
  ChurnDriver(NearestPeerAlgorithm* algo, std::vector<NodeId> members,
              std::vector<NodeId> pool, std::uint64_t seed);

  /// Applies every not-yet-applied event with time_s <= `time_s`.
  ChurnStats ApplyUntil(const ChurnSchedule& schedule, double time_s);

  /// Applies every remaining event.
  ChurnStats ApplyAll(const ChurnSchedule& schedule);

  const std::vector<NodeId>& members() const { return members_; }
  const std::vector<NodeId>& pool() const { return pool_; }
  /// Index of the next unapplied event.
  std::size_t next_event() const { return next_; }

  /// Every node that has crashed so far. The scenario engine points its
  /// FaultySpace at this set, which is how crashed peers stop answering
  /// probes the instant the event applies. Grows only during (serial)
  /// event application, so concurrent query threads may read it.
  const std::unordered_set<NodeId>& crashed() const { return crashed_; }

  /// Crashed nodes whose overlay entries have not been repaired yet.
  /// The engine drains this at the next epoch's churn window and runs
  /// billed RemoveMember repairs — modeling detection by failed probe,
  /// one detection delay (epoch) after the crash.
  std::vector<NodeId> TakePendingRepairs();

  /// Crashes `node` immediately (no event, no rng): drops it from the
  /// membership, marks it crashed, queues repair. Skips (returns false)
  /// if the node is not a member or the membership floor is reached.
  /// Used by the engine's regional-blackout injection.
  bool ForceCrash(NodeId node);

 private:
  void ApplyEvent(const ChurnEvent& event, std::size_t index,
                  ChurnStats& stats);
  void Join(NodeId node, util::Rng& rng);
  /// Removes a member from members_ by swap-and-pop: the last member
  /// fills its slot, so later uniform draws see that order.
  void Drop(NodeId node);
  void Leave(NodeId node);
  /// Membership removal without algorithm notification.
  void Crash(NodeId node);

  NearestPeerAlgorithm* algo_;
  std::vector<NodeId> members_;
  std::vector<NodeId> pool_;
  /// node -> position, kept in sync with members_ (swap-with-last).
  std::unordered_map<NodeId, std::size_t> member_pos_;
  /// schedule index of a join event -> the node it admitted (session
  /// leaves look their victim up here).
  std::unordered_map<std::int64_t, NodeId> join_node_;
  /// Nodes dead forever: never returned to the pool (a crashed host
  /// does not rejoin under a recycled id).
  std::unordered_set<NodeId> crashed_;
  std::vector<NodeId> pending_repairs_;
  std::uint64_t seed_;
  std::size_t next_ = 0;
};

}  // namespace np::core
