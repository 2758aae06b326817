// fleet-chaos: ClusterRouter::run over 4 replicas with join-shortest-queue
// balancing, run as independent sessions with a fresh router each.  Seeded
// per-replica chip faults, hedging, circuit breakers, live migration and
// one admin drain are all on; traffic is a Poisson stream with a burst.
//
// Known defect: with faults, hedging and migration all on, the router
// aborts on some seeds (a KV double reservation or a stalled request).  A
// session that aborts is reported, never skipped: its error is printed and
// every request it was offered counts as a failed operation.
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "graph/runtime.hpp"
#include "graph/timing_memo.hpp"
#include "serve/cluster.hpp"
#include "serving.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

using gaudi::serve::ClusterConfig;
using gaudi::serve::ClusterReport;
using gaudi::serve::ClusterRouter;
using gaudi::sim::SimTime;

/// 20k requests per pass at 40 req/s, in sessions of about a minute.
constexpr std::int64_t kSessions = 8;
constexpr std::int64_t kRequestsPerSession = 2500;
/// Twice the rate between 20 s and 30 s of each session.
constexpr ArrivalShape kArrivals{40.0, 2.0, 20.0, 30.0};
/// Session s drains replica s mod 4 at this instant.
constexpr double kDrainAtS = 40.0;

/// One session's outcome: a report, or the error that aborted it.
struct SessionResult {
  bool aborted = false;
  std::string error;
  ClusterReport report;
  std::string text;  ///< to_report(), or the error text
};

/// Runs one session; an exception from the router is the session's result.
SessionResult run_session(const gaudi::graph::Runtime& rt,
                          const ClusterConfig& cfg,
                          const std::vector<gaudi::serve::Request>& stream,
                          const std::string& tag) {
  SessionResult out;
  try {
    const Tracer::Scope span("serve.cluster.run", tag);
    ClusterRouter router(rt, cfg);
    out.report = router.run(stream);
  } catch (const std::exception& e) {
    out.aborted = true;
    out.error = e.what();
    out.text = "aborted: " + out.error;
    return out;
  }
  const Tracer::Scope span("serve.metrics.to_report", tag);
  out.text = out.report.to_report();
  return out;
}

class FleetChaos final : public Workload {
 public:
  explicit FleetChaos(std::uint64_t seed) {
    StreamShape shape;
    shape.requests = kRequestsPerSession;
    shape.deadline_ms = 3000.0;
    const gaudi::sim::CounterRng rng(seed, 0xF1EE7);
    for (std::int64_t s = 0; s < kSessions; ++s) {
      const auto k = static_cast<std::uint64_t>(s);
      ClusterConfig cfg;
      cfg.replica.model = gaudi::nn::DecodeConfig::gpt2_paper();
      cfg.replica.kv_budget_bytes = 48ull * 1024 * 1024;
      cfg.replica.timing_only = true;
      cfg.replica.retry_max = 2;
      cfg.replica.watchdog = SimTime::from_ms(4000.0);
      cfg.replicas = 4;
      cfg.policy = gaudi::serve::LoadBalancePolicy::kJoinShortestQueue;
      cfg.fault_profile =
          gaudi::sim::FaultProfile::from_mtbf_steps(300.0, /*chips=*/1);
      cfg.fault_seed = rng.bits(2 * k);
      cfg.hedge_budget = SimTime::from_ms(40.0);
      cfg.migration.enabled = true;
      cfg.drain_replica = s % cfg.replicas;
      cfg.drain_at = SimTime::from_seconds(kDrainAtS);
      configs_.push_back(cfg);
      streams_.push_back(make_stream(shape, kArrivals, rng.bits(2 * k + 1)));
    }
    last_.resize(kSessions);
  }

  bool pass(const std::string& tag) override {
    auto& memo = gaudi::graph::TimingMemo::global();
    const std::uint64_t hits0 = memo.hits();
    for (std::int64_t s = 0; s < kSessions; ++s) {
      const auto i = static_cast<std::size_t>(s);
      last_[i] = run_session(rt_, configs_[i], streams_[i],
                             tag + " session" + std::to_string(s));
    }
    pass_hits_ = memo.hits() - hits0;
    if (first_text_.empty()) {
      for (const SessionResult& r : last_) first_text_.push_back(r.text);
    }
    // A session aborted by the known router defect still did its work.
    return true;
  }

  void after_cold_pass(Metrics& m) override {
    const auto& memo = gaudi::graph::TimingMemo::global();
    m.set("graph.timing_memo.misses_setup",
          static_cast<double>(memo.misses()), "count");
    m.set("graph.timing_memo.hits_setup", static_cast<double>(memo.hits()),
          "count");
    first_text_.clear();
  }

  void check(CheckLog& log) override {
    for (std::size_t i = 0; i < last_.size(); ++i) {
      const SessionResult& r = last_[i];
      const std::string sess = "session" + std::to_string(i);
      const auto offered = static_cast<std::int64_t>(streams_[i].size());
      log.attempted += offered;
      log.expect(r.text == first_text_[i],
                 sess + ": two passes rendered different reports");
      if (r.aborted) {
        // The known router defect: reported as failed requests, not as a
        // failed check.
        log.failed += offered;
        std::printf("fleet-chaos %s aborted (known router defect): %s\n",
                    sess.c_str(), r.error.c_str());
        continue;
      }
      log.expect(one_record_per_request(streams_[i], r.report.requests),
                 sess + ": an offered id lacks exactly one terminal record",
                 offered);
      log.expect(ttft_matches_summary(slo_stats(streams_[i], r.report.requests),
                                      r.report.summary),
                 sess + ": TTFT percentiles differ from ServeSummary's");
    }

    // Session 0 again on the full (non-memoized) path, and under
    // GAUDI_VALIDATE=1, which audits KV ownership at every migration cutover.
    ClusterConfig full = configs_[0];
    full.replica.timing_only = false;
    const SessionResult f = run_session(rt_, full, streams_[0], "check full");
    log.expect(f.text == last_[0].text,
               "session0: the full path disagrees with timing-only");
    setenv("GAUDI_VALIDATE", "1", 1);
    const SessionResult v =
        run_session(rt_, configs_[0], streams_[0], "check validate");
    unsetenv("GAUDI_VALIDATE");
    log.expect(v.text == last_[0].text || (v.aborted && last_[0].aborted),
               "session0: GAUDI_VALIDATE=1 run failed or diverged: " + v.text);
  }

  void end_to_end(Metrics& m) const override {
    SloStats pooled;
    double span_s = 0.0;
    for (std::size_t i = 0; i < last_.size(); ++i) {
      if (last_[i].aborted) {
        // Nothing completed; the session still spans its arrivals.
        pooled.offered += static_cast<std::int64_t>(streams_[i].size());
        span_s += streams_[i].back().arrival.seconds();
        continue;
      }
      pooled.merge(slo_stats(streams_[i], last_[i].report.requests));
      span_s += last_[i].report.summary.makespan.seconds();
    }
    set_serving_metrics(m, pooled, span_s);
    m.set("sim_availability_pct",
          100.0 * static_cast<double>(pooled.completed) /
              static_cast<double>(pooled.offered),
          "%");
  }

  void per_layer(Metrics& m,
                 const std::map<std::string, double>& self_s) const override {
    double iters = 0, failovers = 0, chip_failures = 0, hedges = 0, wins = 0;
    double opens = 0, evac = 0, generated = 0, lost = 0, spread = 0;
    double started = 0, completed = 0, aborted = 0, rows = 0, blocks = 0;
    double drains = 0, wire_ms = 0, retries = 0, itl_p99 = 0;
    for (const SessionResult& r : last_) {
      if (r.aborted) continue;
      const ClusterReport& c = r.report;
      double lo = 1e300, hi = 0, sum = 0;
      for (const auto& rep : c.per_replica) {
        iters += static_cast<double>(rep.iterations);
        const auto d = static_cast<double>(rep.dispatched);
        lo = std::min(lo, d);
        hi = std::max(hi, d);
        sum += d;
      }
      spread = std::max(spread, 100.0 * (hi - lo) /
                                    (sum / static_cast<double>(c.replicas)));
      failovers += static_cast<double>(c.failovers);
      chip_failures += static_cast<double>(c.chip_failures);
      hedges += static_cast<double>(c.hedges_launched);
      wins += static_cast<double>(c.hedge_wins);
      opens += static_cast<double>(c.breaker_opens);
      evac += static_cast<double>(c.evac_requeues);
      generated += static_cast<double>(c.summary.tokens_out);
      lost += static_cast<double>(c.summary.recomputed_tokens +
                                  c.summary.wasted_tokens +
                                  c.hedge_wasted_tokens);
      started += static_cast<double>(c.migrations_started);
      completed += static_cast<double>(c.migrations_completed);
      aborted += static_cast<double>(c.migrations_aborted);
      rows += static_cast<double>(c.migrated_rows);
      blocks += static_cast<double>(c.migrated_blocks);
      drains += c.drain_completed ? 1.0 : 0.0;
      wire_ms += c.migration_time.ms();
      retries += static_cast<double>(c.migration_link_retries);
      itl_p99 = std::max(itl_p99, c.summary.itl_p99_ms);
    }
    const double host_s = self_s.count("serve.cluster.run")
                              ? self_s.at("serve.cluster.run")
                              : 0.0;
    m.set("serve.cluster.host_s", host_s, "s");
    m.set("serve.cluster.replica_iterations", iters, "count");
    m.set("serve.cluster.host_us_per_iter",
          iters > 0 ? host_s / iters * 1e6 : 0.0, "us");
    m.set("serve.cluster.failovers", failovers, "count");
    m.set("serve.cluster.chip_failures", chip_failures, "count");
    m.set("serve.cluster.hedges", hedges, "count");
    m.set("serve.cluster.hedge_win_pct",
          hedges > 0 ? 100.0 * wins / hedges : 0.0, "%");
    m.set("serve.cluster.breaker_opens", opens, "count");
    m.set("serve.cluster.evac_requeues", evac, "count");
    m.set("serve.cluster.useful_token_pct",
          generated > 0 ? 100.0 * generated / (generated + lost) : 0.0, "%");
    m.set("serve.cluster.dispatch_spread_pct", spread, "%");
    m.set("serve.migration.started", started, "count");
    m.set("serve.migration.completed_pct",
          started > 0 ? 100.0 * completed / started : 0.0, "%");
    m.set("serve.migration.aborted", aborted, "count");
    m.set("serve.migration.rows", rows, "count");
    m.set("serve.migration.blocks", blocks, "count");
    m.set("serve.migration.drain_done", drains, "count");
    m.set("scaleout.roce.wire_ms", wire_ms, "sim_ms");
    m.set("scaleout.roce.link_retries", retries, "count");
    m.set("serve.metrics.report_s",
          self_s.count("serve.metrics.to_report")
              ? self_s.at("serve.metrics.to_report")
              : 0.0,
          "s");
    m.set("serve.metrics.itl_p99_ms", itl_p99, "sim_ms");
    m.set("graph.timing_memo.hits_timed", static_cast<double>(pass_hits_),
          "count");
    m.set("graph.timing_memo.entries",
          static_cast<double>(gaudi::graph::TimingMemo::global().size()),
          "count");
  }

 private:
  gaudi::graph::Runtime rt_;
  std::vector<ClusterConfig> configs_;
  std::vector<std::vector<gaudi::serve::Request>> streams_;
  std::vector<SessionResult> last_;
  std::vector<std::string> first_text_;
  std::uint64_t pass_hits_ = 0;
};

}  // namespace

WorkloadPtr make_fleet_chaos(std::uint64_t seed) {
  return std::make_unique<FleetChaos>(seed);
}

}  // namespace perfbench
