// What the two serving workloads share: the request streams the benchmark
// generates itself (so a change to serve/workload.* cannot move the
// yardstick), the SLO limits, and the SLO reduction over per-request
// records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"

namespace perfbench {

/// SLO limits, fixed in the benchmark.  A request meets the SLO when it
/// completed, its TTFT is within kTtftLimitMs and its TPOT within
/// kTpotLimitMs; a request that ended any other way misses both.
inline constexpr double kTtftLimitMs = 1000.0;
inline constexpr double kTpotLimitMs = 4.0;
/// The backlog grows when the TTFT median of the last tenth of arrivals
/// exceeds this factor times the first tenth's (unfinished requests count
/// as infinitely late).
inline constexpr double kBacklogFactor = 3.0;

/// Shape of a generated stream.  Prompts are mostly short with a tail of
/// long ones; outputs are uniform; priorities are uniform over the levels.
struct StreamShape {
  std::int64_t requests = 0;
  double long_prompt_share = 0.1;
  std::int64_t short_prompt_lo = 32, short_prompt_hi = 256;
  std::int64_t long_prompt_lo = 512, long_prompt_hi = 1536;
  std::int64_t output_lo = 16, output_hi = 256;
  std::int32_t priority_levels = 2;
  double deadline_ms = 0.0;  ///< per-request completion budget, 0 = none
};

/// Open-loop Poisson arrivals at `rate_rps`, optionally `burst_factor`
/// times faster inside [burst_begin_s, burst_end_s).  Every field is a pure
/// function of (`seed`, request index).  Arrival times are simulated due
/// times, so the generator is never late.
struct ArrivalShape {
  double rate_rps = 1.0;
  double burst_factor = 1.0;
  double burst_begin_s = 0.0;
  double burst_end_s = 0.0;
};

[[nodiscard]] std::vector<gaudi::serve::Request> make_stream(
    const StreamShape& shape, const ArrivalShape& arrivals,
    std::uint64_t seed);

/// The SLO reduction over one run's terminal records.
struct SloStats {
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t met = 0;             ///< completed within both limits
  std::int64_t good_tokens = 0;     ///< output tokens of `met` requests
  std::vector<double> ttft_ms;      ///< completed requests only
  std::vector<double> tpot_ms;      ///< completed requests only
  double backlog_ratio = 0.0;       ///< last-tenth / first-tenth TTFT median

  [[nodiscard]] double slo_pct() const {
    return offered ? 100.0 * static_cast<double>(met) /
                         static_cast<double>(offered)
                   : 0.0;
  }
  [[nodiscard]] bool backlog_grows() const {
    return !(backlog_ratio <= kBacklogFactor);
  }
  /// Pools another run's samples and counts into this one (the backlog
  /// ratio is per run and is not pooled).
  void merge(const SloStats& o);
};

/// Reduces `records` (one per offered request of `stream`) against the SLO.
[[nodiscard]] SloStats slo_stats(
    const std::vector<gaudi::serve::Request>& stream,
    const std::vector<gaudi::serve::RequestMetrics>& records);

/// Every offered id has exactly one terminal record.
[[nodiscard]] bool one_record_per_request(
    const std::vector<gaudi::serve::Request>& stream,
    const std::vector<gaudi::serve::RequestMetrics>& records);

/// The benchmark's nearest-rank TTFT p50/p99 equal the summary's.
[[nodiscard]] bool ttft_matches_summary(const SloStats& s,
                                        const gaudi::serve::ServeSummary& sum);

/// Sets the serving end-to-end metrics from pooled SLO statistics over
/// `span_s` simulated seconds.
void set_serving_metrics(Metrics& m, const SloStats& s, double span_s);

/// Output tokens that left decode steps: every token after a request's
/// first (which prefill's last logits produce).
[[nodiscard]] std::int64_t decode_tokens(
    const std::vector<gaudi::serve::RequestMetrics>& records);

}  // namespace perfbench
