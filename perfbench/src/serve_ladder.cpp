// serve-ladder: one open-loop Poisson stream replayed at four fixed rates
// through ContinuousBatchScheduler::run in timing-only mode (GPT-2 paper
// decoder, batch 8, prefill chunk 128, context bucket 64).
#include <array>

#include "graph/runtime.hpp"
#include "graph/timing_memo.hpp"
#include "serve/scheduler.hpp"
#include "serving.hpp"

namespace perfbench {
namespace {

using gaudi::serve::ContinuousBatchScheduler;
using gaudi::serve::ServeConfig;
using gaudi::serve::ServeReport;

constexpr std::size_t kRungs = 4;
/// rung1 light load, rung2 moderate, rung3 the knee (inside the SLO),
/// rung4 overload.
constexpr std::array<double, kRungs> kRatesRps = {2.0, 6.0, 10.0, 20.0};
constexpr std::int64_t kRequestsPerRung = 16000;
/// A KV pool small enough that overload preempts.
constexpr std::size_t kKvBudgetBytes = 40ull * 1024 * 1024;

class ServeLadder final : public Workload {
 public:
  explicit ServeLadder(std::uint64_t seed) {
    cfg_.model = gaudi::nn::DecodeConfig::gpt2_paper();
    cfg_.kv_budget_bytes = kKvBudgetBytes;
    cfg_.timing_only = true;
    StreamShape shape;
    shape.requests = kRequestsPerRung;
    for (std::size_t r = 0; r < kRungs; ++r) {
      streams_[r] = make_stream(shape, ArrivalShape{kRatesRps[r]}, seed);
    }
  }

  bool pass(const std::string& tag) override {
    auto& memo = gaudi::graph::TimingMemo::global();
    const std::uint64_t hits0 = memo.hits();
    for (std::size_t r = 0; r < kRungs; ++r) {
      const std::string rung_tag = tag + " rung" + std::to_string(r + 1);
      {
        const Tracer::Scope span("serve.scheduler.run", rung_tag);
        ContinuousBatchScheduler sched(rt_, cfg_);
        last_[r] = sched.run(streams_[r]);
      }
      const Tracer::Scope span("serve.metrics.to_report", rung_tag);
      text_[r] = last_[r].to_report();
    }
    pass_hits_ = memo.hits() - hits0;
    if (first_text_[0].empty()) first_text_ = text_;
    return true;
  }

  void after_cold_pass(Metrics& m) override {
    double compiled = 0;
    for (const ServeReport& rep : last_) {
      compiled += static_cast<double>(rep.compiled_decode_steps);
    }
    const auto& memo = gaudi::graph::TimingMemo::global();
    m.set("nn.decode.compiled_steps", compiled, "count");
    m.set("graph.timing_memo.misses_setup",
          static_cast<double>(memo.misses()), "count");
    m.set("graph.timing_memo.hits_setup", static_cast<double>(memo.hits()),
          "count");
    first_text_ = {};
  }

  void check(CheckLog& log) override {
    for (std::size_t r = 0; r < kRungs; ++r) {
      const std::string rung = "rung" + std::to_string(r + 1);
      const auto offered = static_cast<std::int64_t>(streams_[r].size());
      log.attempted += offered;
      log.expect(one_record_per_request(streams_[r], last_[r].requests),
                 rung + ": an offered id lacks exactly one terminal record",
                 offered);
      log.expect(ttft_matches_summary(slo_stats(streams_[r], last_[r].requests),
                                      last_[r].summary),
                 rung + ": TTFT percentiles differ from ServeSummary's");
      log.expect(text_[r] == first_text_[r],
                 rung + ": two passes rendered different reports");
      ServeConfig full = cfg_;
      full.timing_only = false;
      ContinuousBatchScheduler sched(rt_, full);
      log.expect(sched.run(streams_[r]).to_report() == text_[r],
                 rung + ": the full path disagrees with timing-only");
    }
  }

  void end_to_end(Metrics& m) const override {
    const SloStats knee = slo_stats(streams_[2], last_[2].requests);
    set_serving_metrics(m, knee, last_[2].summary.makespan.seconds());
    double offered = 0, completed = 0, capacity = 0;
    for (std::size_t r = 0; r < kRungs; ++r) {
      const SloStats s = slo_stats(streams_[r], last_[r].requests);
      offered += static_cast<double>(s.offered);
      completed += static_cast<double>(s.completed);
      if (s.slo_pct() >= 99.0 && !s.backlog_grows()) {
        capacity = kRatesRps[r];
      }
    }
    m.set("sim_availability_pct", 100.0 * completed / offered, "%");
    m.set("sim_slo_capacity_rps", capacity, "req/sim_s");
  }

  void per_layer(Metrics& m,
                 const std::map<std::string, double>& self_s) const override {
    double iterations = 0, decode_steps = 0, prefill_chunks = 0, dtokens = 0;
    double kv_peak = 0, frag = 0, preempt = 0, generated = 0, recomputed = 0;
    for (std::size_t r = 0; r < kRungs; ++r) {
      const ServeReport& rep = last_[r];
      iterations += static_cast<double>(rep.iterations);
      decode_steps += static_cast<double>(rep.decode_steps);
      prefill_chunks += static_cast<double>(rep.prefill_chunks);
      dtokens += static_cast<double>(decode_tokens(rep.requests));
      kv_peak = std::max(kv_peak, 100.0 * static_cast<double>(rep.kv_peak_blocks) /
                                      static_cast<double>(rep.kv_total_blocks));
      frag = std::max(frag, static_cast<double>(rep.kv_peak_fragmented_tokens));
      preempt += static_cast<double>(rep.summary.preemptions);
      generated += static_cast<double>(rep.summary.tokens_out);
      recomputed += static_cast<double>(rep.summary.recomputed_tokens);

      const SloStats s = slo_stats(streams_[r], rep.requests);
      const std::string p = "serve.ladder.rung" + std::to_string(r + 1) + ".";
      m.set(p + "offered", static_cast<double>(s.offered), "count");
      m.set(p + "failed", static_cast<double>(s.offered - s.completed),
            "count");
      m.set(p + "ttft_p99_ms", nearest_rank(s.ttft_ms, 99.0), "sim_ms");
      m.set(p + "tpot_p50_ms", nearest_rank(s.tpot_ms, 50.0), "sim_ms");
      m.set(p + "slo_pct", s.slo_pct(), "%");
    }
    const double host_s = self_s.count("serve.scheduler.run")
                              ? self_s.at("serve.scheduler.run")
                              : 0.0;
    m.set("serve.scheduler.host_s", host_s, "s");
    m.set("serve.scheduler.iterations", iterations, "count");
    m.set("serve.scheduler.host_us_per_iter", host_s / iterations * 1e6, "us");
    m.set("serve.scheduler.decode_steps", decode_steps, "count");
    m.set("serve.scheduler.prefill_chunks", prefill_chunks, "count");
    m.set("serve.scheduler.batch_fill_pct",
          100.0 * dtokens /
              (decode_steps * static_cast<double>(cfg_.max_batch)),
          "%");
    m.set("serve.kv_cache.peak_pct", kv_peak, "%");
    m.set("serve.kv_cache.frag_tokens_peak", frag, "count");
    m.set("serve.kv_cache.preemptions", preempt, "count");
    m.set("serve.kv_cache.useful_token_pct",
          100.0 * generated / (generated + recomputed), "%");
    m.set("serve.metrics.report_s",
          self_s.count("serve.metrics.to_report")
              ? self_s.at("serve.metrics.to_report")
              : 0.0,
          "s");
    m.set("serve.metrics.itl_p99_ms", last_[2].summary.itl_p99_ms, "sim_ms");
    m.set("graph.timing_memo.hits_timed", static_cast<double>(pass_hits_),
          "count");
    m.set("graph.timing_memo.entries",
          static_cast<double>(gaudi::graph::TimingMemo::global().size()),
          "count");
  }

 private:
  gaudi::graph::Runtime rt_;
  ServeConfig cfg_;
  std::array<std::vector<gaudi::serve::Request>, kRungs> streams_;
  std::array<ServeReport, kRungs> last_;
  std::array<std::string, kRungs> text_, first_text_;
  std::uint64_t pass_hits_ = 0;
};

}  // namespace

WorkloadPtr make_serve_ladder(std::uint64_t seed) {
  return std::make_unique<ServeLadder>(seed);
}

}  // namespace perfbench
