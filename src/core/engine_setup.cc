#include "core/engine_setup.h"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <utility>

#include "matrix/faulty_space.h"
#include "util/error.h"

namespace np::core {

void ValidateScenarioConfig(const ScenarioConfig& config,
                            std::size_t population, int num_clusters) {
  NP_ENSURE(config.epochs >= 1, "need at least one epoch");
  NP_ENSURE(config.queries_per_epoch >= 1, "need queries per epoch");
  NP_ENSURE(config.query_zipf_s >= 0.0, "zipf exponent must be >= 0");
  NP_ENSURE(config.num_threads >= 0,
            "num_threads must be >= 0 (0 = hardware concurrency)");
  NP_ENSURE(config.blackouts.empty() || num_clusters > 0,
            "blackouts need a clustered layout");
  ValidateOverlaySplit(
      population > 0 ? population : std::numeric_limits<std::size_t>::max(),
      config.initial_overlay);
  // Each fault component's check, in build order. The PartitionedSpace
  // layer, and so its rate check, exists only under some pathology.
  const FaultConfig& fault = config.fault;
  ValidatePartitions(fault.partitions, num_clusters);
  matrix::PartitionSchedule pathologies;
  pathologies.grey_node_frac = fault.grey_node_frac;
  pathologies.grey_loss_rate = fault.grey_loss_rate;
  pathologies.asymmetric_frac = fault.asymmetric_loss;
  if (!fault.partitions.empty() || pathologies.Any()) {
    matrix::ValidatePathologies(pathologies);
  }
  matrix::ValidateLossRate(fault.loss_rate);
  ValidateSuspicionConfig(fault.suspicion);
  ValidateMaxAttempts(fault.max_attempts);
}

namespace {

/// Validates over the engine's world before anything is split or built.
const ScenarioConfig& Checked(const ScenarioConfig& config,
                              const LatencySpace& space,
                              const matrix::ClusterLayout* layout,
                              const std::vector<NodeId>& population) {
  ValidateScenarioConfig(
      config,
      population.empty() ? static_cast<std::size_t>(space.size())
                         : population.size(),
      layout == nullptr ? 0 : layout->cluster_count());
  return config;
}

}  // namespace

FaultDeltas FaultDeltas::Between(const ProbeCounter::Snapshot& from,
                                 const ProbeCounter::Snapshot& to) {
  FaultDeltas d;
  d.failed_probes = to.failed_probes - from.failed_probes;
  d.retries = to.retries - from.retries;
  d.suspicion_skips = to.suspicion_skips - from.suspicion_skips;
  d.probation_probes = to.probation_probes - from.probation_probes;
  return d;
}

void FaultDeltas::AddTo(EpochReport& er) const {
  er.failed_probes += failed_probes;
  er.retries += retries;
  er.suspicion_skips += suspicion_skips;
  er.probation_probes += probation_probes;
}

EngineSetup::EngineSetup(const LatencySpace& space,
                         const matrix::ClusterLayout* layout,
                         NearestPeerAlgorithm& algo,
                         const ChurnSchedule& schedule,
                         const ScenarioConfig& config,
                         const std::vector<NodeId>& population)
    : space_(space),
      layout_(layout),
      algo_(algo),
      schedule_(schedule),
      config_(Checked(config, space, layout, population)),
      rng_(util::Mix64(config.seed)),
      split_(population.empty()
                 ? SplitOverlay(space.size(), config.initial_overlay, rng_)
                 : SplitNodes(population, config.initial_overlay, rng_)),
      // Fault streams derive straight from config.seed, NOT from rng_:
      // enabling faults must not shift any draw of the pre-existing
      // streams, or disabled-fault runs would stop being byte-identical.
      fault_root_(util::Mix64(config.seed ^ 0xFA177ULL)),
      partition_schedule_(BuildPartitionSchedule(config.fault, layout,
                                                 space.size(), fault_root_)),
      ledger_(config.fault.track_load ? static_cast<std::size_t>(space.size())
                                      : 0),
      maint_(space,
             ProbeFaults{config.measurement_noise_frac,
                         config.measurement_noise_floor_ms,
                         config.fault.loss_rate, &partition_schedule_},
             ProbeSeeds{rng_(), util::Mix64(fault_root_ ^ 0x6),
                        util::Mix64(fault_root_ ^ 0x1)},
             nullptr, config.fault.track_load ? &ledger_ : nullptr),
      attach_counter_(algo, counter_),
      suspicion_(config.fault.suspicion),
      policy_(config.fault.max_attempts, &counter_,
              config.fault.suspicion.Enabled() ? &suspicion_ : nullptr),
      attach_policy_(algo, policy_) {
  header_.algorithm = algo.name();
  header_.clustered = layout != nullptr;
  header_.initial_members = static_cast<NodeId>(split_.members.size());

  // Builds (and epoch rebuilds) run through ParallelBuild: bit-identical
  // to the serial Build by contract, so only the wall clock moves.
  // Noisy or lossy maintenance views are stateful (per-pair counters),
  // so they clamp to one thread.
  const bool noisy_maintenance = config.measurement_noise_frac > 0.0 ||
                                 config.measurement_noise_floor_ms > 0.0 ||
                                 config.fault.loss_rate > 0.0 ||
                                 partition_schedule_.GreyActive();
  build_threads_ = noisy_maintenance ? 1 : config.num_threads;
  algo.ParallelBuild(maint_.metered(), split_.members, rng_, build_threads_);
  header_.build_messages = maint_.metered().probes();
  counter_.AddBuildProbes(header_.build_messages);
  if (config.fault.track_load) {
    // Epoch load snapshots measure steady-state traffic; the one-time
    // build storm would drown them out.
    ledger_.Reset();
  }

  incremental_ = algo.SupportsChurn();
  driver_.emplace(incremental_ ? &algo : nullptr, std::move(split_.members),
                  std::move(split_.targets), rng_());
  // The crashed set is driver-owned and only grows during the serial
  // churn/blackout phases, so pointing the maintenance stack at it is
  // race-free.
  maint_.set_crashed(&driver_->crashed());
  noise_root_ = rng_();
  query_root_ = rng_();
  rebuild_root_ = rng_();
  query_fault_root_ = util::Mix64(fault_root_ ^ 0x2);
  partition_root_ = util::Mix64(fault_root_ ^ 0x7);

  bool has_crash_events = !config.blackouts.empty();
  for (const ChurnEvent& event : schedule.events()) {
    if (event.type == ChurnEventType::kCrash) {
      has_crash_events = true;
      break;
    }
  }
  header_.partition_mode = partition_schedule_.Any();
  header_.suspicion_mode = config.fault.suspicion.Enabled();
  header_.fault_mode = config.fault.loss_rate > 0.0 ||
                       config.fault.max_attempts > 1 || has_crash_events ||
                       header_.partition_mode || header_.suspicion_mode;
  header_.load_tracking = config.fault.track_load;

  rejoin_root_ = util::Mix64(fault_root_ ^ 0x3);
  blackouts_ = config.blackouts;
  std::sort(blackouts_.begin(), blackouts_.end(),
            [](const ScenarioConfig::Blackout& a,
               const ScenarioConfig::Blackout& b) {
              return a.time_s < b.time_s;
            });
  charged_maintenance_ = header_.build_messages;
}

void EngineSetup::RunWindow(int epoch, EpochReport& er) {
  er.epoch = epoch;
  er.time_s = schedule_.duration_s() * (static_cast<double>(epoch + 1) /
                                        static_cast<double>(config_.epochs));

  // Advance the correlated-fault clock before anything probes: a
  // window ending at this epoch heals now, so this window's probation
  // re-probes can get through — heal repair lands the epoch after the
  // partition, symmetric with crash detection's one-epoch delay.
  if (matrix::PartitionedSpace* partition = maint_.partition()) {
    partition->set_epoch(epoch);
  }
  const bool suspicion = header_.suspicion_mode;
  if (suspicion) {
    suspicion_.set_epoch(epoch);
    // Strike recording is on only inside this serial window; queries
    // consult the quarantine set read-only.
    suspicion_.set_recording(true);
  }

  // Crashes from the previous window are detected now (their probes
  // kept failing all epoch) and purged with billed RemoveMember
  // repairs — one detection delay, before this window's churn.
  if (incremental_) {
    for (const NodeId dead : driver_->TakePendingRepairs()) {
      algo_.RemoveMember(dead);
    }
  }
  if (suspicion) {
    DrainProbation(epoch);
  }
  const bool last_epoch = epoch + 1 == config_.epochs;
  ChurnStats stats;
  while (next_blackout_ < blackouts_.size() &&
         (blackouts_[next_blackout_].time_s <= er.time_s || last_epoch)) {
    // Advance ordinary churn to the blackout instant, then drop
    // every live member of the cluster at once.
    const ScenarioConfig::Blackout& b = blackouts_[next_blackout_++];
    stats += driver_->ApplyUntil(schedule_, b.time_s);
    const std::vector<NodeId> snapshot = driver_->members();
    for (const NodeId member : snapshot) {
      if (layout_->ClusterOf(member) == b.cluster &&
          driver_->ForceCrash(member)) {
        ++stats.crashes;
      }
    }
  }
  stats += last_epoch ? driver_->ApplyAll(schedule_)
                      : driver_->ApplyUntil(schedule_, er.time_s);
  er.joins = stats.joins;
  er.leaves = stats.leaves;
  er.crashes = stats.crashes;
  er.skipped_events = stats.skipped;

  const std::int64_t churn_events = stats.joins + stats.leaves + stats.crashes;
  const MeteredSpace& maint = maint_.metered();
  if (!incremental_ && churn_events > 0) {
    // No incremental maintenance: pay for a full rebuild on the live
    // membership. The per-epoch rebuild rng is independent of the
    // churn streams so resumed and straight-through schedules agree.
    // Strike recording pauses here: ParallelBuild probes from many
    // threads and the ledger is serial-only — scratch-rebuild overlays'
    // repair story is the rebuild itself, not the detector.
    if (suspicion) {
      suspicion_.set_recording(false);
    }
    util::Rng brng(
        util::Mix64(rebuild_root_ ^ static_cast<std::uint64_t>(epoch)));
    algo_.ParallelBuild(maint, driver_->members(), brng, build_threads_);
    er.rebuilt = true;
    // The rebuild was over live members only, so every lingering
    // crashed entry is already gone.
    driver_->TakePendingRepairs();
  }
  if (suspicion) {
    suspicion_.set_recording(false);
    er.quarantined_peers =
        static_cast<std::uint64_t>(suspicion_.quarantined_count());
  }
  er.maintenance_messages = maint.probes() - charged_maintenance_;
  charged_maintenance_ = maint.probes();
  counter_.AddMaintenanceProbes(er.maintenance_messages);
  counter_.AddChurnEvents(static_cast<std::uint64_t>(churn_events));
  er.maintenance_per_event =
      churn_events == 0
          ? 0.0
          : static_cast<double>(er.maintenance_messages) /
                static_cast<double>(churn_events);
  er.live_members = static_cast<NodeId>(driver_->members().size());
}

void EngineSetup::DrainProbation(int epoch) {
  // Departed peers need no detector state (and must not be re-probed).
  const std::vector<NodeId>& members = driver_->members();
  const std::unordered_set<NodeId> live(members.begin(), members.end());
  suspicion_.PruneTo(live);
  for (const NodeId peer : suspicion_.ProbationDue(epoch)) {
    // One billed re-probe from an arbitrary-but-deterministic live
    // anchor; heal detection is metered traffic like everything else.
    NodeId anchor = kInvalidNode;
    for (const NodeId m : members) {
      if (m != peer) {
        anchor = m;
        break;
      }
    }
    if (anchor == kInvalidNode) {
      continue;  // nobody left to probe from
    }
    const bool ok =
        policy_.ProbationProbe(maint_.metered(), peer, anchor).has_value();
    if (suspicion_.ResolveProbation(peer, epoch, ok) && incremental_) {
      // Released: the peer's overlay entries went stale while it was
      // quarantined; refresh them with a billed leave + rejoin, the
      // same shape as crash repair plus re-admission.
      util::Rng rrng(util::Mix64(rejoin_root_ ^
                                 (static_cast<std::uint64_t>(epoch) << 32) ^
                                 static_cast<std::uint64_t>(peer)));
      algo_.RemoveMember(peer);
      algo_.AddMember(peer, rrng);
    }
  }
}

std::vector<double> EngineSetup::TargetCdf(
    const std::vector<NodeId>& pool) const {
  // Rank = position in the (deterministically evolved) pool vector,
  // so the CDF is rebuilt per epoch as the pool changes.
  if (config_.query_zipf_s > 0.0) {
    return ZipfCdf(pool.size(), config_.query_zipf_s);
  }
  return {};
}

QueryBatch EngineSetup::Batch(int epoch, const std::vector<NodeId>& members,
                              const std::vector<NodeId>& pool,
                              const std::unordered_set<NodeId>& crashed,
                              const std::vector<double>& zipf_cdf) {
  NP_ENSURE(!pool.empty(), "no query targets left outside the overlay");
  const auto e = static_cast<std::uint64_t>(epoch);
  QueryBatch batch;
  batch.space = &space_;
  batch.layout = layout_;
  batch.members = &members;
  batch.pool = &pool;
  batch.crashed = &crashed;
  batch.zipf_cdf = &zipf_cdf;
  batch.ledger = config_.fault.track_load ? &ledger_ : nullptr;
  batch.noise_frac = config_.measurement_noise_frac;
  batch.noise_floor_ms = config_.measurement_noise_floor_ms;
  batch.loss_rate = config_.fault.loss_rate;
  batch.fault_mode = header_.fault_mode;
  if (header_.partition_mode) {
    batch.partition = &partition_schedule_;
    batch.active_window = partition_schedule_.WindowFor(epoch);
    batch.epoch = epoch;
    batch.partition_base = util::Mix64(partition_root_ ^ e);
  }
  batch.query_base = util::Mix64(query_root_ ^ e);
  batch.noise_base = util::Mix64(noise_root_ ^ e);
  batch.fault_base = util::Mix64(query_fault_root_ ^ e);
  return batch;
}

FaultDeltas EngineSetup::TakeFaultDeltas() {
  const ProbeCounter::Snapshot now = counter_.Read();
  const FaultDeltas deltas = FaultDeltas::Between(charged_, now);
  charged_ = now;
  return deltas;
}

void EngineSetup::Finish(ScenarioReport& report) const {
  report.final_members = static_cast<NodeId>(driver_->members().size());
  report.totals = counter_.Read();
  report.messages_per_query = report.totals.MessagesPerQuery();
  report.maintenance_per_event = report.totals.MaintenancePerEvent();
  if (config_.fault.track_load) {
    report.load =
        PerNodeSnapshot::Over(ledger_.Counts(), nullptr, driver_->members());
  }
}

}  // namespace np::core
