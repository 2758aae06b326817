// SLO metrics for the serving simulator.
//
// Serving quality is distributional: the paper-style mean utilization
// numbers say nothing about the tail a user-facing SLO is written against.
// The sink collects per-request time-to-first-token (TTFT), per-token
// inter-token latencies (ITL), and completion records, and reduces them to
// p50/p99 tails, throughput, and goodput-under-deadline.  Everything is a
// pure function of the recorded samples — same simulation, same bytes out.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/request.hpp"

namespace gaudi::serve {

/// Nearest-rank percentile of `samples` (p in [0, 100]): the smallest
/// sample at or above the p-th fraction of the sorted data, computed as
/// sorted[ceil(p/100 * N)] with rank clamped to [1, N].  Empty input
/// returns a quiet NaN (rendered as "n/a" downstream), never throws;
/// a single sample is every percentile of itself.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Terminal record of one request.
struct RequestMetrics {
  std::int64_t id = 0;
  RequestOutcome outcome = RequestOutcome::kCompleted;
  sim::SimTime arrival{};
  sim::SimTime first_token{};  ///< absolute time; zero if never reached
  sim::SimTime finish{};       ///< completion/rejection/drop/abort time
  std::int64_t tokens_out = 0;
  std::int64_t preemptions = 0;
  std::int64_t fault_retries = 0;  ///< chip-failure re-queues survived
  std::int64_t migrations = 0;     ///< live KV migrations survived (cluster)
  bool met_deadline = false;  ///< completed within its budget (or no budget)
};

/// Aggregated serving report.
struct ServeSummary {
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::int64_t dropped = 0;
  std::int64_t shed = 0;       ///< refused by overload control
  std::int64_t timed_out = 0;  ///< aborted by the TTFT/ITL watchdog
  std::int64_t failed = 0;     ///< chip failures exhausted the retry budget
  std::int64_t preemptions = 0;
  std::int64_t fault_retries = 0;  ///< chip-failure re-queues across requests
  std::int64_t tokens_out = 0;
  /// Prompt/output tokens re-prefilled because of preemption.
  std::int64_t recomputed_tokens = 0;
  /// KV rows computed and then invalidated by chip failures (in-flight work
  /// thrown away, whether or not the request later completed).
  std::int64_t wasted_tokens = 0;
  /// Live KV migrations across requests, and the KV rows they carried over
  /// the fabric instead of re-prefilling (cluster mode; see
  /// serve/migration.*).  Not rendered by to_report() — the cluster report
  /// owns the migration lines — so single-replica bytes are unchanged.
  std::int64_t migrations = 0;
  std::int64_t migrated_rows = 0;
  std::int64_t deadline_met = 0;   ///< completed requests inside their budget
  /// completed / (offered - rejected): the fraction of admissible requests
  /// the service answered.  NaN (rendered "n/a") when nothing was admissible.
  double availability = 0.0;
  double ttft_p50_ms = 0.0;
  double ttft_p99_ms = 0.0;
  double ttft_mean_ms = 0.0;
  double itl_p50_ms = 0.0;
  double itl_p99_ms = 0.0;
  double throughput_tok_s = 0.0;  ///< generated tokens / makespan
  double goodput_tok_s = 0.0;     ///< tokens of deadline-met requests / makespan
  sim::SimTime makespan{};

  /// Deterministic multi-line rendering (the byte-comparable artifact).
  [[nodiscard]] std::string to_report() const;
};

/// Collects per-request events during a simulation and reduces them.
///
/// Only *completed* requests enter the latency percentiles: a request
/// aborted mid-stream (watchdog, exhausted retry budget, deadline drop after
/// preemption) must not pollute the distribution the SLO is written against
/// — its fate is counted in the per-outcome breakdown instead.  So a
/// request's ITL gaps are held, as integer picoseconds, only while it is in
/// flight.  Completion folds them into one exact histogram (gap → count),
/// from which summary() reads the same nearest-rank p50/p99 as percentile()
/// over the millisecond samples; any other terminal outcome drops them.
///
/// Every offered request reaches exactly one terminal outcome (complete,
/// reject, drop, shed, timeout or fail), and no event for it follows that
/// outcome; the handlers throw sim::InternalError otherwise, and summary()
/// throws while any request is still open.
class MetricsSink {
 public:
  void on_offered(const Request& r);
  void on_first_token(std::int64_t id, sim::SimTime now);
  /// `count` generated tokens, each `gap` after the previous token of the
  /// same request (the ITL sample).
  void on_token(std::int64_t id, sim::SimTime gap, std::int64_t count = 1);
  void on_preempt(std::int64_t id, std::int64_t recomputed_tokens);
  void on_complete(std::int64_t id, sim::SimTime now);
  void on_reject(std::int64_t id, sim::SimTime now);
  void on_drop(std::int64_t id, sim::SimTime now);
  void on_shed(std::int64_t id, sim::SimTime now);
  void on_timeout(std::int64_t id, sim::SimTime now);
  /// A chip failure invalidated `wasted_rows` of the request's computed KV;
  /// the request re-queues for another attempt.
  void on_fault_retry(std::int64_t id, std::int64_t wasted_rows);
  /// A chip failure invalidated `wasted_rows` and the retry budget is spent:
  /// the request ends kFailed.
  void on_fail(std::int64_t id, sim::SimTime now, std::int64_t wasted_rows);
  /// Computed KV rows thrown away without a retry or terminal failure — a
  /// cancelled hedge loser, or a dead hedge sibling whose twin carries on
  /// (cluster mode).  Aggregate-only: no per-request record changes.
  void on_wasted(std::int64_t rows);
  /// The request's `rows` computed KV rows moved to another replica over
  /// the fabric (live migration): re-prefill work saved, nothing wasted.
  void on_migrated(std::int64_t id, std::int64_t rows);

  [[nodiscard]] ServeSummary summary(sim::SimTime makespan) const;
  /// Per-request records sorted by id (terminal states only).
  [[nodiscard]] std::vector<RequestMetrics> requests() const;

 private:
  /// One offered request: its record, plus what the reductions need while
  /// it is in flight.
  struct Entry {
    RequestMetrics record;
    sim::SimTime deadline{};
    /// ITL gaps as runs of equal values {gap in ps, count}, in token
    /// order; freed at the terminal outcome.
    std::vector<std::pair<std::int64_t, std::int64_t>> itl_runs;
    bool has_ttft = false;
    bool closed = false;  ///< the terminal outcome arrived
  };

  /// The entry of `id`, which must be offered and not yet closed.
  Entry& open(std::int64_t id);
  /// Records `e`'s terminal outcome and frees its ITL buffer.
  void close(Entry& e, RequestOutcome outcome, sim::SimTime now);

  std::vector<Entry> entries_;  ///< in offer order
  std::unordered_map<std::int64_t, std::size_t> index_;  ///< id -> entry
  /// ITL gaps of completed requests: gap in ps -> count.
  std::unordered_map<std::int64_t, std::int64_t> itl_hist_;
  std::int64_t open_ = 0;  ///< offered requests not yet closed
  std::int64_t preemptions_ = 0;
  std::int64_t recomputed_tokens_ = 0;
  std::int64_t fault_retries_ = 0;
  std::int64_t wasted_tokens_ = 0;
  std::int64_t migrations_ = 0;
  std::int64_t migrated_rows_ = 0;
};

}  // namespace gaudi::serve
