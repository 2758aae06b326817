#include "serving.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/rng.hpp"

namespace perfbench {

using gaudi::serve::Request;
using gaudi::serve::RequestMetrics;
using gaudi::serve::RequestOutcome;
using gaudi::sim::SimTime;

namespace {

/// Maps a unit-rate arrival offset through the inverse of the integrated
/// piecewise-constant rate (time rescaling of a Poisson process).
double due_time(double u, const ArrivalShape& a) {
  const double r = a.rate_rps;
  const double before = r * a.burst_begin_s;
  const double inside = r * a.burst_factor * (a.burst_end_s - a.burst_begin_s);
  if (u < before || a.burst_factor == 1.0) return u / r;
  if (u < before + inside) {
    return a.burst_begin_s + (u - before) / (r * a.burst_factor);
  }
  return a.burst_end_s + (u - before - inside) / r;
}

std::int64_t draw_between(const gaudi::sim::CounterRng& rng, std::uint64_t i,
                          std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  rng.below(i, static_cast<std::uint64_t>(hi - lo + 1)));
}

}  // namespace

std::vector<Request> make_stream(const StreamShape& shape,
                                 const ArrivalShape& arrivals,
                                 std::uint64_t seed) {
  const gaudi::sim::CounterRng root(seed, 0x5E12EB);
  const auto gap = root.stream(1), kind = root.stream(2),
             prompt = root.stream(3), output = root.stream(4),
             prio = root.stream(5);
  std::vector<Request> out;
  out.reserve(static_cast<std::size_t>(shape.requests));
  double u = 0.0;
  for (std::int64_t i = 0; i < shape.requests; ++i) {
    const auto k = static_cast<std::uint64_t>(i);
    // Exponential unit-rate gap; uniform() is in [0, 1), so 1 - x > 0.
    u += -std::log(1.0 - static_cast<double>(gap.uniform(k)));
    Request r;
    r.id = i;
    r.arrival = SimTime::from_seconds(due_time(u, arrivals));
    const bool long_prompt =
        static_cast<double>(kind.uniform(k)) < shape.long_prompt_share;
    r.prompt_len = long_prompt ? draw_between(prompt, k, shape.long_prompt_lo,
                                              shape.long_prompt_hi)
                               : draw_between(prompt, k, shape.short_prompt_lo,
                                              shape.short_prompt_hi);
    r.output_len = draw_between(output, k, shape.output_lo, shape.output_hi);
    r.priority = static_cast<std::int32_t>(
        prio.below(k, static_cast<std::uint64_t>(shape.priority_levels)));
    if (shape.deadline_ms > 0.0) {
      r.deadline = SimTime::from_ms(shape.deadline_ms);
    }
    out.push_back(r);
  }
  return out;
}

void SloStats::merge(const SloStats& o) {
  offered += o.offered;
  completed += o.completed;
  met += o.met;
  good_tokens += o.good_tokens;
  ttft_ms.insert(ttft_ms.end(), o.ttft_ms.begin(), o.ttft_ms.end());
  tpot_ms.insert(tpot_ms.end(), o.tpot_ms.begin(), o.tpot_ms.end());
}

SloStats slo_stats(const std::vector<Request>& stream,
                   const std::vector<RequestMetrics>& records) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SloStats s;
  s.offered = static_cast<std::int64_t>(stream.size());
  // TTFT per offered request in arrival order (make_stream's ids), +inf
  // unless completed; the backlog test reads the first and last tenths.
  std::vector<double> ttft_by_arrival(stream.size(), kInf);
  for (const RequestMetrics& m : records) {
    if (m.outcome != RequestOutcome::kCompleted) continue;
    ++s.completed;
    const double ttft = (m.first_token - m.arrival).ms();
    const double tpot =
        m.tokens_out > 1 ? (m.finish - m.first_token).ms() /
                               static_cast<double>(m.tokens_out - 1)
                         : 0.0;
    s.ttft_ms.push_back(ttft);
    s.tpot_ms.push_back(tpot);
    if (ttft <= kTtftLimitMs && tpot <= kTpotLimitMs) {
      ++s.met;
      s.good_tokens += m.tokens_out;
    }
    const auto pos = static_cast<std::size_t>(m.id);
    if (pos < ttft_by_arrival.size()) ttft_by_arrival[pos] = ttft;
  }
  const auto tenth =
      static_cast<std::ptrdiff_t>(std::max<std::size_t>(stream.size() / 10, 1));
  const std::vector<double> first(ttft_by_arrival.begin(),
                                  ttft_by_arrival.begin() + tenth);
  const std::vector<double> last(ttft_by_arrival.end() - tenth,
                                 ttft_by_arrival.end());
  s.backlog_ratio = median(last) / median(first);
  return s;
}

bool one_record_per_request(const std::vector<Request>& stream,
                            const std::vector<RequestMetrics>& records) {
  if (records.size() != stream.size()) return false;
  std::vector<std::int64_t> offered, seen;
  for (const Request& r : stream) offered.push_back(r.id);
  for (const RequestMetrics& m : records) seen.push_back(m.id);
  std::sort(offered.begin(), offered.end());
  std::sort(seen.begin(), seen.end());
  return offered == seen &&
         std::adjacent_find(seen.begin(), seen.end()) == seen.end();
}

bool ttft_matches_summary(const SloStats& s,
                          const gaudi::serve::ServeSummary& sum) {
  if (s.ttft_ms.empty()) return std::isnan(sum.ttft_p50_ms);
  return nearest_rank(s.ttft_ms, 50.0) == sum.ttft_p50_ms &&
         nearest_rank(s.ttft_ms, 99.0) == sum.ttft_p99_ms;
}

void set_serving_metrics(Metrics& m, const SloStats& s, double span_s) {
  m.set("sim_ttft_p50_ms", nearest_rank(s.ttft_ms, 50.0), "sim_ms");
  m.set("sim_ttft_p99_ms", nearest_rank(s.ttft_ms, 99.0), "sim_ms");
  m.set("sim_tpot_p50_ms", nearest_rank(s.tpot_ms, 50.0), "sim_ms");
  m.set("sim_tpot_p99_ms", nearest_rank(s.tpot_ms, 99.0), "sim_ms");
  m.set("sim_goodput_tok_s",
        span_s > 0.0 ? static_cast<double>(s.good_tokens) / span_s : 0.0,
        "tok/sim_s");
}

std::int64_t decode_tokens(const std::vector<RequestMetrics>& records) {
  std::int64_t n = 0;
  for (const RequestMetrics& m : records) {
    if (m.tokens_out > 1) n += m.tokens_out - 1;
  }
  return n;
}

}  // namespace perfbench
