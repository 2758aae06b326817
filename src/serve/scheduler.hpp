// Continuous-batching scheduler: iteration-level serving on the simulated
// chip.
//
// Following Orca's iteration-level scheduling with Sarathi-style chunked
// prefill, the scheduler admits requests into a bounded set of batch slots
// and, each iteration, runs (a) one prefill chunk for the oldest request
// still materializing its KV cache and (b) one fused decode step for every
// request already generating — new requests join and finished requests
// leave between iterations, never waiting for a batch to drain.
//
// One pricer costs both phases: a decode step at a bucketed context length
// (batch shape fixed at `max_batch` — partially filled iterations ride the
// compiled shape with idle slots, exactly as static-shape serving does on
// real accelerators) and a prefill chunk at a bucketed chunk length.  Each
// (phase, bucket) is built, compiled and run once, then answered from the
// scheduler's cost table; timing-only runs also share it across schedulers
// through graph::TimingMemo.  An iteration is billed as prefill-chunk time
// plus decode-step time: the two phases share the engines serially, which
// is the pessimistic (barrier) reading of the paper's scheduler study.
//
// KV capacity is enforced by the paged allocator: admission reserves the
// prompt up front, decode grows one token at a time, and when the pool is
// exhausted the lowest-priority (then youngest) running request is
// preempted — its blocks freed, its prompt+generated tokens requeued for
// recomputation.  A request that cannot fit even an empty pool is rejected
// at admission with the same typed validation the graph builders apply.
//
// One event stream: step() runs one iteration and returns every observable
// outcome as ReplicaEvents.  Given a horizon, it also runs, in the same call,
// every following iteration that starts before the horizon and exactly
// repeats the decode step before it: such a stretch of k iterations is k
// times one priced step, emitted as one counted token event per request.
// Two drivers consume the events — run() applies them to its own
// MetricsSink and passes its next arrival as the horizon; the cluster router
// (serve/cluster.*) maps them back to the original requests and passes none,
// because it may act between any two iterations.
//
// Fault tolerance (see DESIGN.md §11): an optional seeded FaultInjector is
// consulted once per iteration.  kTpcStraggler and kHbmPressure stretch the
// iteration's cost; kChipFailure aborts the batch mid-iteration and step()
// returns without tokens.  The driver recovers: run() bills the restart and
// re-queues every running request with exponential backoff under a bounded
// retry budget (exhausted budget → kFailed); the router fails the work over
// to other replicas.  A per-request watchdog aborts requests whose next
// token has been pending too long (kTimedOut), and admission-time overload
// control sheds the lowest-priority waiting arrivals when the backlog or KV
// headroom crosses a threshold (kShed).  Every fault decision is a pure
// function of (seed, iteration), so the same (stream, config, fault seed)
// reproduces a byte-identical report; a disabled injector leaves the
// schedule byte-identical to a fault-free configuration.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "graph/runtime.hpp"
#include "nn/decode.hpp"
#include "serve/kv_cache.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"
#include "sim/fault.hpp"

namespace gaudi::serve {

/// HBM bytes one token's K+V rows occupy across all layers of `cfg` for a
/// single sequence (f32 rows, K and V, every layer).
[[nodiscard]] std::size_t kv_bytes_per_token(const nn::DecodeConfig& cfg);

struct ServeConfig {
  nn::DecodeConfig model = nn::DecodeConfig::gpt2_paper();
  /// Concurrent batch slots (also the compiled decode batch shape).
  std::int64_t max_batch = 8;
  /// Prompt tokens prefilled per iteration for the request in prefill.
  std::int64_t prefill_chunk = 128;
  /// Context and chunk lengths are rounded up to this bucket before
  /// pricing, bounding the number of distinct graphs compiled.
  std::int64_t ctx_bucket = 64;
  /// KV pool geometry; `num_blocks` is derived from `kv_budget_bytes`.
  std::int64_t block_tokens = 64;
  std::size_t kv_budget_bytes = 64ull * 1024 * 1024;
  /// Share decode-step and prefill-chunk makespans process-wide through
  /// graph::TimingMemo (and GAUDI_MEMO_FILE), so a shape priced by any
  /// scheduler of the same model skips graph construction, compilation, and
  /// scheduling entirely.  Off, each scheduler prices its own shapes; a
  /// missed shape runs the same timing-mode graph either way, so reports are
  /// byte-identical.  Unset defers to the GAUDI_TIMING_ONLY environment
  /// variable.
  std::optional<bool> timing_only{};

  // -- Fault tolerance (DESIGN.md §11) --------------------------------------
  /// Deterministic fault oracle, queried once per iteration for
  /// kChipFailure / kHbmPressure / kTpcStraggler.  The default-constructed
  /// injector is disabled and leaves the schedule byte-identical to a
  /// fault-free run.  Serving uses chips=1 in FaultProfile::from_mtbf_steps:
  /// the batch runs on one simulated chip, so MTBF is per-iteration.
  sim::FaultInjector faults{};
  /// Chip-failure re-queues a request survives before kFailed (0 = the
  /// first failure is terminal).  In cluster mode the same budget bounds
  /// failovers to surviving replicas (serve/cluster.*).
  std::int32_t retry_max = 3;
  /// Re-admission delay after the first chip failure; doubles per retry up
  /// to `retry_backoff_max`.
  sim::SimTime retry_backoff = sim::SimTime::from_ms(5.0);
  /// Ceiling on the doubled retry/hedge backoff: without it a generous
  /// retry budget grows the delay unboundedly (2^retry_max), which turns a
  /// flapping chip into a de-facto hang.  Must be positive.
  sim::SimTime retry_backoff_max = sim::SimTime::from_ms(5000.0);
  /// Dead time after a chip failure before the replacement chip serves
  /// (restart + HBM re-init in the simulated fleet).
  sim::SimTime chip_restart = sim::SimTime::from_ms(50.0);
  /// Per-request watchdog: abort a request whose next token (first or
  /// subsequent) has been pending longer than this.  Zero disables.
  sim::SimTime watchdog{};
  /// Overload control: after admission, shed the lowest-priority waiting
  /// arrivals while the backlog (waiting + requeued) exceeds this depth.
  /// Zero disables.  Retried/preempted requests are never shed.
  std::int64_t shed_queue_depth = 0;
  /// Overload control: shed every waiting arrival while fewer than this
  /// many KV blocks are free.  Zero disables.
  std::int64_t shed_min_free_blocks = 0;
};

/// Everything a serving run reports.
struct ServeReport {
  ServeSummary summary;
  std::vector<RequestMetrics> requests;
  std::int64_t iterations = 0;
  std::int64_t decode_steps = 0;
  std::int64_t prefill_chunks = 0;
  /// Requests abandoned because their deadline had already expired when a
  /// slot opened — at first admission or at re-admission after preemption
  /// or a fault retry (RequestOutcome::kDropped).
  std::int64_t deadline_drops = 0;
  /// Injected-fault counters; the "faults:" report line renders only when
  /// the injector is enabled, keeping disabled runs byte-identical to a
  /// fault-free configuration.
  bool faults_enabled = false;
  std::int64_t chip_failures = 0;
  std::int64_t hbm_stalls = 0;
  std::int64_t tpc_stragglers = 0;
  std::size_t compiled_decode_steps = 0;  ///< decode buckets priced
  std::int64_t kv_total_blocks = 0;
  std::int64_t kv_peak_blocks = 0;
  std::int64_t kv_peak_fragmented_tokens = 0;

  /// Deterministic multi-line rendering: summary plus scheduler counters.
  [[nodiscard]] std::string to_report() const;
};

/// One observable scheduler event, returned by step().  run() feeds them to
/// its MetricsSink; the cluster router (serve/cluster.*) owns request
/// identity (hedged copies map back to their original id) and fleet-level
/// accounting.
enum class ReplicaEventKind : std::uint8_t {
  kFirstToken,
  kToken,     ///< `count` tokens, each aux ps (the ITL sample) after the last
  kComplete,
  kReject,
  kDrop,
  kShed,
  kTimeout,
  kPreempt,   ///< aux = prompt/output rows to recompute
};

struct ReplicaEvent {
  ReplicaEventKind kind = ReplicaEventKind::kToken;
  /// Tokens a kToken event stands for: 1, except a stretch's run of equal
  /// gaps, whose last token lands at `at`.
  std::int32_t count = 1;
  std::int64_t id = 0;
  sim::SimTime at{};
  std::int64_t aux = 0;
};
static_assert(sizeof(ReplicaEvent) == 32,
              "count must stay in the padding after kind");

/// How far one request got: what a driver carries when it moves the request
/// off a replica (extract, drain_all) and hands it to another
/// (enqueue_resume).  The cluster router keeps one per request copy, under
/// the copy's own id.
struct RequestProgress {
  Request req;
  std::int64_t generated = 0;
  sim::SimTime last_token{};
  /// KV rows computed on the replica it came from (zero when it was queued):
  /// what a failure wastes, what a migration moves.
  std::int64_t rows = 0;
};

class ContinuousBatchScheduler {
 public:
  ContinuousBatchScheduler(const graph::Runtime& rt, ServeConfig cfg);

  /// Simulates serving `stream` to completion and returns the metrics:
  /// drives step() and recovers from chip deaths itself.  Deterministic:
  /// same stream + config => byte-identical report.
  [[nodiscard]] ServeReport run(const std::vector<Request>& stream);

  // --- Driven interface (run() and the cluster router) ---------------------
  // Requests arrive via enqueue()/enqueue_resume(); each step() returns the
  // observable events, and a chip failure is surfaced (chip_failed) for the
  // driver to handle.

  /// What one driven step produced: one iteration, or one followed by a
  /// stretch of exact repeats.  `worked == false` means nothing was
  /// admissible at `now` (ask next_wake() for the earliest retry window);
  /// events still carry any admission-time drops/sheds/rejects.
  struct StepResult {
    bool worked = false;
    /// The chip died mid-iteration: no tokens emitted, the running
    /// requests still hold their KV, and the driver must recover.
    bool chip_failed = false;
    /// Fault-stretched iteration signals (kTpcStraggler / kHbmPressure) —
    /// the router's heartbeat-latency proxy for per-replica health scoring
    /// (serve/migration.*).  Both false on a clean iteration.
    bool straggled = false;
    bool hbm_stalled = false;
    sim::SimTime end{};  ///< simulated instant the last iteration ended
    std::vector<ReplicaEvent> events;
  };

  /// Hands a fresh request to this replica; it joins the waiting queue and
  /// is admitted by the next step().
  void enqueue(const Request& r);
  /// Re-admits a request that already made progress elsewhere.  Admission
  /// reserves its full context (prompt + generated prefix); the first
  /// `rows_ready` rows arrived with it over the fabric (a live migration,
  /// serve/migration.*) and skip re-prefill, the rest re-prefill on this
  /// replica.  A failover passes 0 and re-prefills everything; a fully
  /// synced decode-phase migration resumes with zero prefill chunks.
  void enqueue_resume(const Request& r, std::int64_t generated,
                      sim::SimTime last_token, std::int64_t rows_ready,
                      sim::SimTime now);
  /// Progress of a *running* request (nullopt when `id` is not running
  /// here — waiting/requeued requests hold no KV worth streaming).
  [[nodiscard]] std::optional<RequestProgress> running_progress(
      std::int64_t id) const;
  /// Removes one request wherever it sits (running, requeued, or waiting)
  /// and returns its progress, releasing any KV *without* billing the rows
  /// as wasted.  Running extraction is the migration cutover (the caller
  /// moved the rows over the fabric) or a cancelled hedge loser (the caller
  /// bills `rows`); queued extraction carries zero rows (no KV held) and
  /// backs queue evacuation off a draining replica.  Returns nullopt when
  /// `id` is not here (died / completed since).
  [[nodiscard]] std::optional<RequestProgress> extract(std::int64_t id);
  /// Runs one iteration at `now` (admission, overload control, prefill +
  /// decode, fault oracle, token emission, watchdog).  When `until` is past
  /// the iteration's end, it then runs as one stretch every following
  /// iteration that starts before `until` and repeats the decode step
  /// before it (see stretch()); the caller must hand over nothing before
  /// `until`.  The default horizon runs exactly one iteration.
  [[nodiscard]] StepResult step(sim::SimTime now, sim::SimTime until = {});
  /// Hands a consumed StepResult::events buffer back so the next step()
  /// reuses its capacity instead of allocating.
  void recycle(std::vector<ReplicaEvent>&& events);
  /// Any request anywhere in the machine (running, requeued, or waiting)?
  [[nodiscard]] bool has_work() const;
  /// Earliest backoff window opening among requeued requests — the instant
  /// an idle (`worked == false`) replica becomes schedulable again.
  [[nodiscard]] std::optional<sim::SimTime> next_wake() const;
  /// Strips every request (running first, then requeued, then waiting) and
  /// releases their KV; the replica is left empty for its warm restart.
  [[nodiscard]] std::vector<RequestProgress> drain_all();
  /// Queue pressure (running + requeued + waiting) for join-shortest-queue.
  [[nodiscard]] std::int64_t load() const;
  /// Ids of every request here (running, requeued, or waiting), ascending.
  [[nodiscard]] std::vector<std::int64_t> ids() const;
  [[nodiscard]] std::int64_t free_kv_blocks() const;
  [[nodiscard]] std::int64_t iterations() const { return stats_.iterations; }
  /// Allocator ownership-invariant check (router-side GAUDI_VALIDATE after a
  /// migration cutover: no KV block owned by two replicas).
  void audit_kv() const { kv_.audit(); }
  [[nodiscard]] bool holds_kv(std::int64_t id) const { return kv_.holds(id); }

 private:
  struct Active {
    Request req;
    std::int64_t prefill_needed = 0;  ///< prompt (+ regenerated KV on resume)
    std::int64_t prefilled = 0;
    std::int64_t generated = 0;
    sim::SimTime last_token{};
    std::int32_t fault_retries = 0;  ///< chip-failure re-queues so far
    sim::SimTime eligible_at{};      ///< earliest re-admission (retry backoff)
    /// KV rows that arrived via live migration and skip re-prefill at the
    /// next admission (serve/migration.*); zero on every other path.
    std::int64_t migrated_rows = 0;

    /// KV rows the request occupies right now.  The first output token
    /// falls out of prefill's last logits without a cache append, so `g`
    /// generated tokens pin prompt + max(g - 1, 0) rows; the peak (one row
    /// before the final token) is prompt + output - 1, which is exactly
    /// what admission validates against the pool.
    [[nodiscard]] std::int64_t kv_tokens() const {
      return req.prompt_len + std::max<std::int64_t>(generated - 1, 0);
    }
    [[nodiscard]] bool in_prefill() const { return prefilled < prefill_needed; }
    [[nodiscard]] bool done() const { return generated >= req.output_len; }
  };

  /// A request generating a token this iteration.
  struct DecodeSlot {
    std::int64_t id = 0;
    std::int64_t ctx_in = 0;  ///< KV rows the step attends over
  };

  /// What the pricer costs: one decode step over the running batch, or one
  /// prefill chunk of a single request.
  enum class Phase : std::uint8_t { kDecode, kPrefill };

  [[nodiscard]] std::int64_t ctx_to_bucket(std::int64_t ctx) const;
  /// Makespan of `phase` at `bucket` tokens: the cost table, then (timing
  /// only) graph::TimingMemo, then one build-compile-run of the graph.
  [[nodiscard]] sim::SimTime price(Phase phase, std::int64_t bucket);
  /// TimingMemo key of price(): every input that changes the makespan.
  [[nodiscard]] std::string price_key(Phase phase, std::int64_t bucket,
                                      std::int64_t batch) const;
  /// Frees KV until `tokens` fit, preempting victims other than `self`.
  /// Returns false when no victim remains and the pool still cannot fit.
  bool make_room(std::int64_t tokens, std::int64_t self_id);
  void preempt(std::size_t victim_index);
  /// Admits eligible requeued requests, then waiting arrivals, into free
  /// batch slots (rejecting/dropping as it goes).
  void admit(sim::SimTime now);
  /// Overload control: sheds lowest-priority waiting arrivals while the
  /// post-admission backlog or KV headroom crosses the configured
  /// thresholds.
  void shed_overload(sim::SimTime now);
  /// run()'s chip-failure recovery: invalidate every running request's KV
  /// blocks and re-queue (or fail) each one, recording both on `sink`.
  void on_chip_failure(sim::SimTime now, MetricsSink& sink);
  /// Iteration epilogue at `now`: the watchdog, the KV fragmentation peak,
  /// and the GAUDI_VALIDATE allocator audit.
  void finish_iteration(sim::SimTime now);
  /// Fast-forwards from `now`, the end of an iteration, over the k >= 0
  /// following iterations that start before `until` and repeat one decode
  /// step of cost T exactly: nothing to admit, shed, re-admit or fault,
  /// every running request with its last token at `now`, growing inside its
  /// current KV block and short of its last token, the decode bucket
  /// unchanged.  Advances `now` by k * T and adds k tokens at gap T to each
  /// request's token event.
  void stretch(sim::SimTime& now, sim::SimTime until);
  /// Aborts running/requeued requests whose next token has been pending
  /// longer than the watchdog timeout.
  void run_watchdog(sim::SimTime now);
  /// KV rows `a` has computed so far — the work a chip failure throws away.
  [[nodiscard]] static std::int64_t computed_rows(const Active& a) {
    return a.in_prefill() ? a.prefilled : a.kv_tokens();
  }
  /// `a`'s progress, carrying `rows` computed KV rows.
  [[nodiscard]] static RequestProgress progress(const Active& a,
                                                std::int64_t rows) {
    return {a.req, a.generated, a.last_token, rows};
  }
  /// Appends an observable event to the current step's event list.
  void emit(ReplicaEventKind kind, std::int64_t id, sim::SimTime at,
            std::int64_t aux = 0, std::int32_t count = 1) {
    events_.push_back({kind, count, id, at, aux});
  }

  graph::Runtime rt_;
  ServeConfig cfg_;
  bool timing_only_ = false;  ///< resolved from cfg_.timing_only / env
  bool validate_ = false;     ///< resolved from GAUDI_VALIDATE at construction
  std::vector<ReplicaEvent> events_;  ///< the current step's events
  memory::DeviceAllocator hbm_;
  PagedKvAllocator kv_;
  /// price()'s cost table: per phase, the makespan of each bucket at slot
  /// ceil(bucket / ctx_bucket), or -1 ps while the bucket is unpriced.
  std::array<std::vector<sim::SimTime>, 2> costs_;
  std::vector<Active> running_;
  /// step()'s decode set and its survivors of KV growth, kept so that an
  /// iteration allocates nothing.
  std::vector<DecodeSlot> decode_set_, survivors_;
  std::deque<Active> requeued_;  ///< preempted/retrying, awaiting re-admission
  std::deque<Request> waiting_;  ///< arrived, not yet admitted or shed
  /// The counters accumulate here as they happen; run() adds the summary,
  /// the per-request records and the pool totals.
  ServeReport stats_;
};

}  // namespace gaudi::serve
