#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "sim/error.hpp"

namespace gaudi::serve {

namespace {

/// 1-based nearest rank of the p-th percentile among `n` >= 1 samples.
std::size_t nearest_rank(double p, std::size_t n) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// The nearest-rank percentile, in ms, of a histogram {gap in ps, count}
/// sorted by gap.  The ps -> ms conversion is monotone, so this is bit-equal
/// to percentile() over the same gaps converted to ms.
double histogram_percentile(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& sorted,
    double p) {
  std::size_t n = 0;
  for (const auto& [ps, count] : sorted) n += static_cast<std::size_t>(count);
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t rank = nearest_rank(p, n);
  std::size_t seen = 0;
  for (const auto& [ps, count] : sorted) {
    seen += static_cast<std::size_t>(count);
    if (seen >= rank) return sim::SimTime::from_ps(ps).ms();
  }
  throw sim::InternalError("nearest rank beyond the histogram's samples");
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  GAUDI_CHECK(p >= 0.0 && p <= 100.0 && std::isfinite(p),
              "percentile expects p in [0, 100]");
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(p, samples.size()) - 1];
}

namespace {

/// Fixed-precision rendering; non-finite (empty-sample percentiles) → "n/a".
std::string num(double v, int precision = 2) {
  if (!std::isfinite(v)) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace

std::string ServeSummary::to_report() const {
  std::ostringstream os;
  const std::string avail = std::isfinite(availability)
                                ? num(availability * 100.0, 1) + "%"
                                : "n/a";
  os << "requests: " << offered << " offered, " << completed << " completed, "
     << preemptions << " preemptions, availability " << avail << "\n";
  os << "outcomes: " << rejected << " rejected, " << dropped << " dropped, "
     << shed << " shed, " << failed << " failed, " << timed_out
     << " timed-out\n";
  os << "tokens:   " << tokens_out << " generated, " << recomputed_tokens
     << " recomputed after preemption, " << wasted_tokens
     << " wasted by faults (" << fault_retries << " retries)\n";
  os << "TTFT:     p50 " << num(ttft_p50_ms) << " ms, p99 "
     << num(ttft_p99_ms) << " ms, mean " << num(ttft_mean_ms) << " ms\n";
  os << "ITL:      p50 " << num(itl_p50_ms) << " ms, p99 " << num(itl_p99_ms)
     << " ms\n";
  os << "rate:     " << num(throughput_tok_s, 1) << " tok/s throughput, "
     << num(goodput_tok_s, 1) << " tok/s goodput (" << deadline_met << " of "
     << completed << " inside deadline) over " << sim::to_string(makespan)
     << "\n";
  return os.str();
}

void MetricsSink::on_offered(const Request& r) {
  const bool fresh = index_.emplace(r.id, entries_.size()).second;
  GAUDI_CHECK(fresh, "request id " + std::to_string(r.id) + " offered twice");
  Entry e;
  e.record.id = r.id;
  e.record.arrival = r.arrival;
  e.deadline = r.deadline;
  entries_.push_back(std::move(e));
  ++open_;
}

MetricsSink::Entry& MetricsSink::open(std::int64_t id) {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    throw sim::InternalError("metrics for unknown request id " +
                             std::to_string(id));
  }
  Entry& e = entries_[it->second];
  GAUDI_ASSERT(!e.closed, "request " + std::to_string(id) +
                              " already reached its terminal outcome");
  return e;
}

void MetricsSink::close(Entry& e, RequestOutcome outcome, sim::SimTime now) {
  e.record.outcome = outcome;
  e.record.finish = now;
  e.closed = true;
  --open_;
  decltype(e.itl_runs)().swap(e.itl_runs);  // clear() would keep the capacity
}

void MetricsSink::on_first_token(std::int64_t id, sim::SimTime now) {
  Entry& e = open(id);
  e.record.first_token = now;
  // The first token is real output; it just has no gap.
  e.record.tokens_out += 1;
  e.has_ttft = true;
}

void MetricsSink::on_token(std::int64_t id, sim::SimTime gap,
                           std::int64_t count) {
  GAUDI_ASSERT(count >= 1, "a token event carries at least one token");
  Entry& e = open(id);
  e.record.tokens_out += count;
  // Consecutive gaps of one request are mostly equal (the same iteration
  // cost), so runs keep the buffer and the completion fold short.
  if (!e.itl_runs.empty() && e.itl_runs.back().first == gap.ps()) {
    e.itl_runs.back().second += count;
  } else {
    e.itl_runs.emplace_back(gap.ps(), count);
  }
}

void MetricsSink::on_preempt(std::int64_t id, std::int64_t recomputed_tokens) {
  open(id).record.preemptions += 1;
  preemptions_ += 1;
  recomputed_tokens_ += recomputed_tokens;
}

void MetricsSink::on_complete(std::int64_t id, sim::SimTime now) {
  Entry& e = open(id);
  for (const auto& [ps, count] : e.itl_runs) itl_hist_[ps] += count;
  e.record.met_deadline = e.deadline == sim::SimTime::zero() ||
                          now - e.record.arrival <= e.deadline;
  close(e, RequestOutcome::kCompleted, now);
}

void MetricsSink::on_reject(std::int64_t id, sim::SimTime now) {
  close(open(id), RequestOutcome::kRejected, now);
}

void MetricsSink::on_drop(std::int64_t id, sim::SimTime now) {
  close(open(id), RequestOutcome::kDropped, now);
}

void MetricsSink::on_shed(std::int64_t id, sim::SimTime now) {
  close(open(id), RequestOutcome::kShed, now);
}

void MetricsSink::on_timeout(std::int64_t id, sim::SimTime now) {
  close(open(id), RequestOutcome::kTimedOut, now);
}

void MetricsSink::on_fault_retry(std::int64_t id, std::int64_t wasted_rows) {
  open(id).record.fault_retries += 1;
  fault_retries_ += 1;
  wasted_tokens_ += wasted_rows;
}

void MetricsSink::on_fail(std::int64_t id, sim::SimTime now,
                          std::int64_t wasted_rows) {
  close(open(id), RequestOutcome::kFailed, now);
  wasted_tokens_ += wasted_rows;
}

void MetricsSink::on_wasted(std::int64_t rows) { wasted_tokens_ += rows; }

void MetricsSink::on_migrated(std::int64_t id, std::int64_t rows) {
  open(id).record.migrations += 1;
  migrations_ += 1;
  migrated_rows_ += rows;
}

ServeSummary MetricsSink::summary(sim::SimTime makespan) const {
  GAUDI_ASSERT(open_ == 0, std::to_string(open_) +
                               " offered requests have no terminal outcome");
  ServeSummary s;
  s.offered = static_cast<std::int64_t>(entries_.size());
  s.preemptions = preemptions_;
  s.recomputed_tokens = recomputed_tokens_;
  s.fault_retries = fault_retries_;
  s.wasted_tokens = wasted_tokens_;
  s.migrations = migrations_;
  s.migrated_rows = migrated_rows_;
  s.makespan = makespan;
  std::int64_t good_tokens = 0;
  // Percentiles reduce the samples of completed requests only: a request
  // the service gave up on must not shift the latency tails it reports.
  std::vector<double> ttft_ms;
  for (const Entry& e : entries_) {
    const RequestMetrics& m = e.record;
    s.tokens_out += m.tokens_out;
    switch (m.outcome) {
      case RequestOutcome::kCompleted:
        s.completed += 1;
        if (m.met_deadline) {
          s.deadline_met += 1;
          good_tokens += m.tokens_out;
        }
        if (e.has_ttft) ttft_ms.push_back((m.first_token - m.arrival).ms());
        break;
      case RequestOutcome::kRejected: s.rejected += 1; break;
      case RequestOutcome::kDropped: s.dropped += 1; break;
      case RequestOutcome::kShed: s.shed += 1; break;
      case RequestOutcome::kTimedOut: s.timed_out += 1; break;
      case RequestOutcome::kFailed: s.failed += 1; break;
    }
  }
  const std::int64_t admissible = s.offered - s.rejected;
  s.availability = admissible > 0 ? static_cast<double>(s.completed) /
                                        static_cast<double>(admissible)
                                  : std::numeric_limits<double>::quiet_NaN();
  s.ttft_p50_ms = percentile(ttft_ms, 50.0);
  s.ttft_p99_ms = percentile(ttft_ms, 99.0);
  if (!ttft_ms.empty()) {
    double sum = 0.0;
    for (const double v : ttft_ms) sum += v;
    s.ttft_mean_ms = sum / static_cast<double>(ttft_ms.size());
  } else {
    s.ttft_mean_ms = std::numeric_limits<double>::quiet_NaN();
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> itl(itl_hist_.begin(),
                                                         itl_hist_.end());
  std::sort(itl.begin(), itl.end());
  s.itl_p50_ms = histogram_percentile(itl, 50.0);
  s.itl_p99_ms = histogram_percentile(itl, 99.0);
  const double seconds = makespan.seconds();
  s.throughput_tok_s =
      seconds > 0.0 ? static_cast<double>(s.tokens_out) / seconds : 0.0;
  s.goodput_tok_s =
      seconds > 0.0 ? static_cast<double>(good_tokens) / seconds : 0.0;
  return s;
}

std::vector<RequestMetrics> MetricsSink::requests() const {
  std::vector<RequestMetrics> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.record);
  std::sort(out.begin(), out.end(),
            [](const RequestMetrics& a, const RequestMetrics& b) {
              return a.id < b.id;
            });
  return out;
}

}  // namespace gaudi::serve
