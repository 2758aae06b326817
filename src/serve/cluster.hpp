// Multi-replica serving cluster: a front-end router over N independent
// serving replicas.
//
// One fault-tolerant scheduler (serve/scheduler.*) models a single chip: a
// kChipFailure stalls everything it serves for `chip_restart`.  Production
// inference survives hardware loss by running replicas — each with its own
// continuous-batching scheduler, paged KV pool, and (derived from one
// cluster seed) its own fault-injector stream — behind a router that:
//
//  * balances load (round-robin, join-shortest-queue, least-free-KV-blocks);
//  * detects failures from heartbeats: a replica that goes silent past a
//    suspicion timeout is marked down, its in-flight requests fail over to
//    survivors with a FULL re-prefill of prompt + generated prefix (paged KV
//    does not survive the chip), every thrown-away row counted as wasted;
//    the replica rejoins as a warm spare after `chip_restart`;
//  * hedges slow requests: a request still waiting for its first token past
//    a latency budget is duplicated to a second replica — first token wins,
//    the loser is cancelled, its KV blocks returned, its rows wasted;
//  * circuit-breaks flapping replicas: closed → open when the recent
//    failure rate crosses a threshold, half-open after a cooldown admits a
//    single probe, and the probe's fate decides closed vs open again.
//
// Determinism discipline is inherited from the scheduler: every router
// decision is a pure function of (stream, config, seed) — same inputs, same
// bytes out — and a cluster whose injector is disabled is byte-identical to
// a fault-free configuration.  Time is event-driven: the router advances a
// global clock over arrival, iteration-completion, detection, rejoin,
// hedge-deadline, and breaker-cooldown instants, with replica-index order
// breaking every tie.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/runtime.hpp"
#include "serve/migration.hpp"
#include "serve/scheduler.hpp"

namespace gaudi::serve {

enum class LoadBalancePolicy : std::uint8_t {
  kRoundRobin,         ///< rotate dispatches across believed-up replicas
  kJoinShortestQueue,  ///< fewest queued + running requests wins
  kLeastKvLoad,        ///< most free KV blocks wins
};

[[nodiscard]] const char* load_balance_policy_name(LoadBalancePolicy p);
/// Parses "round-robin" | "jsq" | "least-kv"; throws sim::InvalidArgument
/// naming the unrecognized value otherwise.
[[nodiscard]] LoadBalancePolicy parse_load_balance_policy(
    const std::string& name);

struct ClusterConfig {
  /// Per-replica scheduler configuration.  `replica.faults` must stay
  /// disabled — cluster faults come from `fault_profile`/`fault_seed` below
  /// so each replica draws an independent stream.  `replica.retry_max`
  /// bounds the failovers a request survives before kFailed, and
  /// `replica.retry_backoff`/`retry_backoff_max` pace re-dispatch.
  ServeConfig replica;
  std::int64_t replicas = 2;
  LoadBalancePolicy policy = LoadBalancePolicy::kRoundRobin;

  /// Fault model: replica r queries FaultInjector(splitmix64(fault_seed +
  /// r + 1), fault_profile) — one cluster seed, N decorrelated streams.  A
  /// disabled profile (the default) leaves the run byte-identical to a
  /// fault-free configuration.
  sim::FaultProfile fault_profile{};
  std::uint64_t fault_seed = 0xFA517;

  /// Failure detection.  Replicas heartbeat every `heartbeat_interval`;
  /// the router suspects a replica once it has been silent for
  /// `suspicion_timeout`, rounded up to the next heartbeat tick.  A replica
  /// that restarts sooner announces its new incarnation on the first
  /// heartbeat after `chip_restart`, so detection lands at
  /// death + min(suspicion_timeout, chip_restart), tick-quantized.
  sim::SimTime heartbeat_interval = sim::SimTime::from_ms(2.0);
  sim::SimTime suspicion_timeout = sim::SimTime::from_ms(10.0);

  /// Hedged requests: duplicate a dispatched request that has produced no
  /// first token within this budget onto a second replica.  Zero disables.
  /// At most one hedge per request.
  sim::SimTime hedge_budget{};

  /// Per-replica circuit breaker (closed → open → half-open).  A replica
  /// whose recent outcome window of `breaker_window` samples holds at least
  /// `breaker_min_samples` outcomes with a failure fraction >=
  /// `breaker_threshold` opens; after `breaker_cooldown` it admits a single
  /// probe request whose fate decides closed vs open again.
  bool breaker_enabled = true;
  std::int64_t breaker_window = 8;
  std::int64_t breaker_min_samples = 4;
  double breaker_threshold = 0.5;
  sim::SimTime breaker_cooldown = sim::SimTime::from_ms(100.0);

  /// Live KV migration over the scaleout fabric (serve/migration.*): an
  /// evacuating replica streams each running request's paged KV blocks to a
  /// healthy peer, delta-syncs the rows generated in flight, and cuts over
  /// with zero re-prefill.  With migration disabled and no drain
  /// scheduled, no replica ever evacuates.
  MigrationConfig migration{};
  /// Administrative drain for planned maintenance: at `drain_at` the named
  /// replica stops taking dispatches and evacuates — running work migrates
  /// (or, without migration, completes in place), queued work re-routes —
  /// with zero request failures.  -1 disables.
  std::int64_t drain_replica = -1;
  sim::SimTime drain_at{};
  /// Health scoring: a replica whose fault-stretched iterations — the
  /// straggler/HBM-pressure signals that delay its heartbeats — reach
  /// `degraded_after` within a sliding `health_window` reads degraded and,
  /// with migration enabled, is proactively evacuated before the chip dies.
  sim::SimTime health_window = sim::SimTime::from_ms(50.0);
  std::int64_t degraded_after = 3;
};

/// Per-replica slice of the fleet report.
struct ReplicaStats {
  std::int64_t dispatched = 0;  ///< requests (incl. hedge copies) routed here
  std::int64_t completed = 0;
  std::int64_t chip_failures = 0;
  std::int64_t failed_over = 0;  ///< requests stripped off this replica
  std::int64_t iterations = 0;
  std::int64_t breaker_opens = 0;
  std::int64_t migrated_out = 0;  ///< requests live-migrated off this replica
  std::int64_t migrated_in = 0;   ///< requests live-migrated onto it
  sim::SimTime down_time{};  ///< chip_failures x chip_restart
};

/// Everything a cluster run reports.  `summary` aggregates the fleet
/// exactly like a single-replica ServeSummary (availability, tails,
/// goodput); the cluster-only counters and the per-replica breakdown extend
/// it below the shared lines.
struct ClusterReport {
  ServeSummary summary;
  std::vector<RequestMetrics> requests;
  std::int64_t replicas = 0;
  LoadBalancePolicy policy = LoadBalancePolicy::kRoundRobin;
  bool faults_enabled = false;
  bool hedging_enabled = false;
  std::int64_t chip_failures = 0;  ///< fleet-wide injected chip deaths
  /// Requests re-dispatched to a survivor after losing their replica (each
  /// consumed one unit of the retry budget and re-prefills from scratch).
  std::int64_t failovers = 0;
  std::int64_t hedges_launched = 0;
  std::int64_t hedge_wins = 0;  ///< the duplicate beat the primary
  /// KV rows computed by cancelled hedge losers (and by dead siblings of
  /// hedged requests) — wasted work that never reached a client.
  std::int64_t hedge_wasted_tokens = 0;
  std::int64_t breaker_opens = 0;
  std::int64_t deadline_drops = 0;
  /// Live migration & draining (serve/migration.*).  The "migrate:" /
  /// "drain:" report lines render only when the feature is enabled.
  bool migration_enabled = false;
  bool drain_enabled = false;
  std::int64_t drain_replica = -1;
  bool drain_completed = false;
  std::int64_t migrations_started = 0;
  std::int64_t migrations_completed = 0;  ///< cut over with zero re-prefill
  std::int64_t migrations_aborted = 0;    ///< fell back to re-prefill failover
  /// KV rows that cut over instead of re-prefilling: the prefill work the
  /// migration path saved versus the wasted_tokens a failover would bill.
  std::int64_t migrated_rows = 0;
  std::int64_t migrated_blocks = 0;        ///< paged blocks on the wire
  std::int64_t migration_link_retries = 0; ///< transient link drops retried
  sim::SimTime migration_time{};           ///< total fabric time, all legs
  /// Queued (no-KV) requests re-routed off evacuating replicas — free moves
  /// that consume no retry budget and waste no rows.
  std::int64_t evac_requeues = 0;
  std::vector<ReplicaStats> per_replica;

  /// Deterministic multi-line rendering (the byte-comparable artifact).
  /// Fault- and hedge-dependent lines render only when the corresponding
  /// feature is enabled, preserving disabled-injector byte-identity.
  [[nodiscard]] std::string to_report() const;
};

class ClusterRouter {
 public:
  ClusterRouter(const graph::Runtime& rt, ClusterConfig cfg);

  /// Simulates serving `stream` across the fleet to completion.
  /// Deterministic: same stream + config => byte-identical report.  Every
  /// offered request ends in exactly one typed outcome.
  [[nodiscard]] ClusterReport run(const std::vector<Request>& stream);

 private:
  enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

  /// A request waiting in the router queue: a new arrival, or a failover
  /// that carries its generated prefix.  It has no live copy meanwhile.
  struct QueueEntry {
    RequestProgress copy;
    sim::SimTime eligible_at{};
  };

  struct Replica {
    std::unique_ptr<ContinuousBatchScheduler> sched;
    bool up = true;         ///< actually serving (false death..rejoin)
    bool suspected = false; ///< router knows it is down (detection..rejoin)
    /// The iteration in flight, engaged until its results land at `end`.
    std::optional<ContinuousBatchScheduler::StepResult> pending;
    bool death_pending = false;  ///< drained, failover awaiting detection
    sim::SimTime detect_time{};
    sim::SimTime rejoin_time{};
    std::vector<RequestProgress> dead_work;
    /// Dispatched between death and detection — lost on the dead chip, the
    /// router just does not know yet.  Failed over at detection.
    std::vector<RequestProgress> stranded;
    BreakerState breaker = BreakerState::kClosed;
    std::deque<bool> outcomes;  ///< true = success, sliding breaker window
    sim::SimTime open_until{};
    /// The half-open probe's request id; -1 while no probe is out.
    std::int64_t probe_id = -1;
    /// Administrative drain (sticky: survives a death/rejoin cycle).
    bool draining = false;
    bool drain_done = false;
    /// Sliding window of fault-stretched iterations (serve/migration.*).
    HealthTracker health;
    ReplicaStats stats;
  };

  /// Router-side state of one original request.  Each copy ("side") keeps
  /// the id it was placed under wherever it moves: the request's own id, or
  /// that id plus the hedge base for its one duplicate.
  struct Track {
    Request req;
    std::int32_t attempts = 0;  ///< failovers consumed (vs retry_max)
    bool started = false;       ///< first token delivered to the client
    bool hedged = false;        ///< a duplicate was (or will never be) sent
    /// Migration damping: a request moves off a *degraded* (not draining)
    /// replica at most once, so fleet-wide degradation cannot ping-pong the
    /// same KV across the fabric forever.
    bool health_migrated = false;
    std::int64_t winner = -1;   ///< side id that produced the first token
    sim::SimTime dispatch_time{};  ///< latest primary dispatch (hedge base)
    /// Live side id -> replica.  A side is live iff it is here.
    std::map<std::int64_t, std::int64_t> sides;
  };

  struct HedgeTimer {
    sim::SimTime fire{};
    std::int64_t orig = 0;
    sim::SimTime armed_at{};  ///< stale once the primary re-dispatches
  };

  /// One in-flight live migration of side `sid` from `src` to `dst`.  The
  /// source keeps decoding while a leg is on the wire; the delta-sync leg
  /// carries the rows generated meanwhile, and the last few in-flight
  /// tokens ride the cutover message itself.
  struct Migration {
    std::int64_t sid = 0;
    std::int64_t src = 0;
    std::int64_t dst = 0;
    int phase = 0;                 ///< 0 = base copy, 1 = delta sync
    bool for_drain = false;        ///< triggered by a drain, not health
    sim::SimTime done_at{};        ///< current leg lands
    std::int64_t rows_synced = 0;  ///< rows covered by the legs sent so far
  };

  [[nodiscard]] sim::SimTime heartbeat_ceil(sim::SimTime t) const;
  [[nodiscard]] bool breaker_allows(Replica& rep, sim::SimTime now) const;
  void breaker_record(std::int64_t r, bool ok, sim::SimTime now);
  /// A probe that ends without a verdict (cancelled, migrated away, or a
  /// non-breaker outcome) proves nothing: free `rep`'s half-open slot if
  /// request `orig` holds it, or the replica wedges shut.
  static void release_probe(Replica& rep, std::int64_t orig);
  /// Picks the dispatch target among believed-up, breaker-admitting
  /// replicas (optionally excluding one); -1 when none qualifies.
  [[nodiscard]] std::int64_t pick_replica(sim::SimTime now,
                                          std::int64_t exclude);
  /// Dispatches `copy` to replica `r` under its own side id, which must not
  /// be live already.  It arrives holding no KV.
  void place(const RequestProgress& copy, std::int64_t r, sim::SimTime now);
  void process_death(std::int64_t r, sim::SimTime now);
  void process_detection(std::int64_t r, sim::SimTime now);
  void apply_events(std::int64_t r,
                    const std::vector<ReplicaEvent>& events);
  /// The track of live side `sid`, or nullptr if the side is stale
  /// (cancelled, finished, or lost with its replica).
  [[nodiscard]] Track* track_of(std::int64_t sid);
  /// Removes side `sid` from its track; returns the track or nullptr if
  /// the side is stale.
  Track* drop_side(std::int64_t sid);
  void cancel_side(std::int64_t sid, std::int64_t r);
  void finish_track(std::int64_t orig);
  void dispatch_round(sim::SimTime now);
  void process_hedges(sim::SimTime now);
  /// Is this replica shedding its work (admin drain, or degraded health
  /// with migration enabled)?  Evacuating replicas take no new dispatches
  /// — in particular no half-open breaker probes.
  [[nodiscard]] bool evacuating(const Replica& rep, sim::SimTime now) const;
  /// Prices one migration transfer leg of `rows` KV rows over the fabric,
  /// bills it to the report, and returns its duration.
  [[nodiscard]] sim::SimTime send_leg(std::int64_t rows);
  /// Advances in-flight migrations whose current leg has landed: delta-sync
  /// legs launch, finished transfers cut over, stale ones abort (the side
  /// completed, was cancelled, or lost its replica — the existing re-prefill
  /// failover owns those paths).
  void process_migrations(sim::SimTime now);
  /// Walks evacuating replicas between their iterations and moves their
  /// work off: redundant hedge twins cancel, running requests migrate, and
  /// the rest re-route to a peer for free (running work without migration
  /// is preempted and re-prefills there).  A copy keeps its side id, and
  /// stays where it is while no peer admits it.
  void evacuation_round(sim::SimTime now);
  /// Fires the administrative drain and detects drain completion.
  void process_drain(sim::SimTime now);

  graph::Runtime rt_;
  ClusterConfig cfg_;
  std::vector<Replica> replicas_;
  MetricsSink sink_;  ///< fleet-level; sees original request ids only
  std::deque<QueueEntry> queue_;
  std::map<std::int64_t, Track> tracks_;
  std::vector<HedgeTimer> hedges_;
  std::vector<Migration> migrations_;
  /// Deterministic fault stream for the migration path's fabric link,
  /// decorrelated from every replica's iteration stream.
  sim::FaultInjector link_faults_{};
  std::uint64_t migration_seq_ = 0;  ///< transfer-leg counter (fault sites)
  bool drain_fired_ = false;
  /// GAUDI_VALIDATE: audit allocators at cutover, and check each evacuation
  /// snapshot against the tracks.
  bool validate_ = false;
  std::int64_t rr_cursor_ = 0;
  /// The fleet counters accumulate here as they happen; run() adds the
  /// summary, the per-request records and the per-replica breakdown.
  ClusterReport report_;
  bool ran_ = false;
};

}  // namespace gaudi::serve
