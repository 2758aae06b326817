// Serving simulator tests: workload determinism, paged-allocator
// invariants, percentile edge cases, scheduler end-to-end runs, and
// regression tests for the decode/CLI input-validation fixes, and the pinned
// report bytes of one serve and one serve-cluster run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/options.hpp"
#include "graph/runtime.hpp"
#include "graph/timing_memo.hpp"
#include "nn/decode.hpp"
#include "serve/cluster.hpp"
#include "serve/kv_cache.hpp"
#include "serve/metrics.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "sim/error.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"

namespace gaudi {
namespace {

// ---------------------------------------------------------------- percentile

TEST(Percentile, EmptyReturnsNaN) {
  EXPECT_TRUE(std::isnan(serve::percentile({}, 50.0)));
}

TEST(Percentile, SingleSampleIsEveryPercentile) {
  EXPECT_EQ(serve::percentile({7.0}, 0.0), 7.0);
  EXPECT_EQ(serve::percentile({7.0}, 50.0), 7.0);
  EXPECT_EQ(serve::percentile({7.0}, 100.0), 7.0);
}

TEST(Percentile, NearestRankOnKnownData) {
  const std::vector<double> v = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(serve::percentile(v, 0.0), 10.0);    // rank clamps to 1
  EXPECT_EQ(serve::percentile(v, 50.0), 50.0);   // ceil(5.0) = 5th
  EXPECT_EQ(serve::percentile(v, 90.0), 90.0);
  EXPECT_EQ(serve::percentile(v, 91.0), 100.0);  // ceil(9.1) = 10th
  EXPECT_EQ(serve::percentile(v, 100.0), 100.0);
  // Order of the input must not matter.
  EXPECT_EQ(serve::percentile({30, 10, 20}, 50.0), 20.0);
}

TEST(Percentile, RejectsOutOfRangeP) {
  EXPECT_THROW((void)serve::percentile({1.0}, -1.0), sim::InvalidArgument);
  EXPECT_THROW((void)serve::percentile({1.0}, 101.0), sim::InvalidArgument);
}

TEST(MetricsSink, FirstTokenCountsAsOutput) {
  serve::MetricsSink sink;
  serve::Request r;
  r.id = 3;
  sink.on_offered(r);
  sink.on_first_token(3, sim::SimTime::from_ms(5.0));
  sink.on_token(3, sim::SimTime::from_ms(1.0));
  sink.on_token(3, sim::SimTime::from_ms(1.0));
  sink.on_complete(3, sim::SimTime::from_ms(8.0));
  const serve::ServeSummary s = sink.summary(sim::SimTime::from_ms(8.0));
  EXPECT_EQ(s.tokens_out, 3);
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.deadline_met, 1);  // no deadline configured counts as met
}

TEST(MetricsSink, TokenAfterCompletionThrows) {
  serve::MetricsSink sink;
  serve::Request r;
  r.id = 4;
  sink.on_offered(r);
  sink.on_first_token(4, sim::SimTime::from_ms(5.0));
  sink.on_complete(4, sim::SimTime::from_ms(5.0));
  EXPECT_THROW(sink.on_token(4, sim::SimTime::from_ms(1.0)),
               sim::InternalError);
}

TEST(MetricsSink, CompletionAfterTimeoutThrows) {
  serve::MetricsSink sink;
  serve::Request r;
  r.id = 5;
  sink.on_offered(r);
  sink.on_timeout(5, sim::SimTime::from_ms(9.0));
  EXPECT_THROW(sink.on_complete(5, sim::SimTime::from_ms(10.0)),
               sim::InternalError);
  // Closed requests end the run; an open one makes summary() throw.
  EXPECT_NO_THROW((void)sink.summary(sim::SimTime::from_ms(10.0)));
  r.id = 6;
  sink.on_offered(r);
  EXPECT_THROW((void)sink.summary(sim::SimTime::from_ms(10.0)),
               sim::InternalError);
}

TEST(MetricsSink, ItlTailsEqualPercentileOverCompletedSamples) {
  // Seeded random sink histories.  Gaps come from a few values (many ties)
  // or a wide range, and requests end in random outcomes.  The sink's ITL
  // tails must equal percentile() over the ms samples of the completed
  // requests.  Seed 0 offers nothing, seed 1 completes one request with one
  // gap, and other seeds may complete none.
  const std::int64_t tie_ps[] = {2'610'000'000, 2'630'000'000, 5'220'000'000};
  const auto same = [](double a, double b) {
    return (std::isnan(a) && std::isnan(b)) || a == b;
  };
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const sim::CounterRng rng(seed);
    std::uint64_t draw = 0;
    const auto below = [&](std::uint64_t n) {
      return static_cast<std::int64_t>(rng.below(draw++, n));
    };
    serve::MetricsSink sink;
    std::vector<double> completed_ms;
    const std::int64_t requests = seed < 2 ? static_cast<std::int64_t>(seed)
                                           : below(12);
    for (std::int64_t id = 0; id < requests; ++id) {
      serve::Request r;
      r.id = id;
      sink.on_offered(r);
    }
    for (std::int64_t id = 0; id < requests; ++id) {
      const std::int64_t outcome = seed == 1 ? 0 : below(4);
      const std::int64_t gaps = seed == 1 ? 1 : below(30);
      std::vector<double> ms;
      sink.on_first_token(id, sim::SimTime::from_ms(1.0));
      for (std::int64_t g = 0; g < gaps; ++g) {
        const std::int64_t ps =
            below(2) == 0 ? tie_ps[below(3)] : 1 + below(1'000'000'000'000);
        sink.on_token(id, sim::SimTime::from_ps(ps));
        ms.push_back(sim::SimTime::from_ps(ps).ms());
      }
      const sim::SimTime end = sim::SimTime::from_ms(2.0);
      switch (outcome) {
        case 0:
        case 1:
          sink.on_complete(id, end);
          completed_ms.insert(completed_ms.end(), ms.begin(), ms.end());
          break;
        case 2: sink.on_timeout(id, end); break;
        default: sink.on_fail(id, end, 0); break;
      }
    }
    const serve::ServeSummary s = sink.summary(sim::SimTime::from_ms(2.0));
    const double p50 = serve::percentile(completed_ms, 50.0);
    const double p99 = serve::percentile(completed_ms, 99.0);
    EXPECT_TRUE(same(s.itl_p50_ms, p50))
        << "seed " << seed << ": " << s.itl_p50_ms << " vs " << p50;
    EXPECT_TRUE(same(s.itl_p99_ms, p99))
        << "seed " << seed << ": " << s.itl_p99_ms << " vs " << p99;
    if (seed < 2) {
      EXPECT_EQ(std::isnan(p50), seed == 0);
    }
  }
}

TEST(MetricsSink, CountedTokenEqualsItsSingleTokens) {
  // A counted token event stands for `count` single ones at the same gap:
  // seeded histories fed both ways must reduce to the same report.
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const sim::CounterRng rng(seed);
    std::uint64_t draw = 0;
    const auto below = [&](std::uint64_t n) {
      return static_cast<std::int64_t>(rng.below(draw++, n));
    };
    serve::MetricsSink counted;
    serve::MetricsSink single;
    const std::int64_t requests = 1 + below(6);
    for (std::int64_t id = 0; id < requests; ++id) {
      serve::Request r;
      r.id = id;
      counted.on_offered(r);
      single.on_offered(r);
      counted.on_first_token(id, sim::SimTime::from_ms(1.0));
      single.on_first_token(id, sim::SimTime::from_ms(1.0));
      for (std::int64_t run = below(5); run > 0; --run) {
        const sim::SimTime gap = sim::SimTime::from_ps(1 + below(3));
        const std::int64_t count = 1 + below(4);
        counted.on_token(id, gap, count);
        for (std::int64_t i = 0; i < count; ++i) single.on_token(id, gap);
      }
      counted.on_complete(id, sim::SimTime::from_ms(2.0));
      single.on_complete(id, sim::SimTime::from_ms(2.0));
    }
    const sim::SimTime end = sim::SimTime::from_ms(2.0);
    EXPECT_EQ(counted.summary(end).to_report(), single.summary(end).to_report())
        << "seed " << seed;
  }
}

// ------------------------------------------------------------------ workload

serve::StreamConfig tiny_stream() {
  serve::StreamConfig cfg;
  cfg.arrival_rate_rps = 50.0;
  cfg.num_requests = 10;
  cfg.prompt = {2, 4};
  cfg.output = {2, 3};
  cfg.seed = 0xBEEF;
  return cfg;
}

TEST(Workload, PoissonStreamIsDeterministicAndInRange) {
  const auto a = serve::poisson_stream(tiny_stream());
  const auto b = serve::poisson_stream(tiny_stream());
  ASSERT_EQ(a.size(), 10u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<std::int64_t>(i));
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
    EXPECT_EQ(a[i].output_len, b[i].output_len);
    EXPECT_GE(a[i].prompt_len, 2);
    EXPECT_LE(a[i].prompt_len, 4);
    EXPECT_GE(a[i].output_len, 2);
    EXPECT_LE(a[i].output_len, 3);
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
  }
  serve::StreamConfig other = tiny_stream();
  other.seed = 0xF00D;
  const auto c = serve::poisson_stream(other);
  bool differs = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    differs = differs || c[i].arrival != a[i].arrival ||
              c[i].prompt_len != a[i].prompt_len;
  }
  EXPECT_TRUE(differs);
}

TEST(Workload, RejectsDegenerateConfigs) {
  serve::StreamConfig cfg = tiny_stream();
  cfg.arrival_rate_rps = 0.0;
  EXPECT_THROW((void)serve::poisson_stream(cfg), sim::InvalidArgument);
  cfg = tiny_stream();
  cfg.prompt = {4, 2};  // inverted
  EXPECT_THROW((void)serve::poisson_stream(cfg), sim::InvalidArgument);
}

TEST(Workload, ParsesTraceAndNamesBadLine) {
  std::istringstream good(
      "# captured workload\n"
      "0,4,2\n"
      "12,3,2,1\n"
      "\n"
      "3,2,2,0,250\n");
  const auto reqs = serve::parse_trace(good);
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_EQ(reqs[0].prompt_len, 4);
  EXPECT_EQ(reqs[1].arrival, sim::SimTime::from_ms(3.0));  // sorted by arrival
  EXPECT_EQ(reqs[2].priority, 1);
  EXPECT_EQ(reqs[1].deadline, sim::SimTime::from_ms(250.0));

  std::istringstream bad("0,4,2\nabc,2,3\n");
  try {
    (void)serve::parse_trace(bad);
    FAIL() << "malformed trace line accepted";
  } catch (const sim::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// ---------------------------------------------------------- paged allocator

serve::PagedKvConfig pool(std::int64_t blocks, std::int64_t block_tokens = 4) {
  serve::PagedKvConfig cfg;
  cfg.block_tokens = block_tokens;
  cfg.num_blocks = blocks;
  return cfg;
}

TEST(PagedKv, ReserveGrowReleaseKeepsAccounting) {
  serve::PagedKvAllocator kv(pool(4));
  EXPECT_TRUE(kv.can_reserve(16));
  EXPECT_FALSE(kv.can_reserve(17));

  ASSERT_TRUE(kv.reserve(1, 5));  // 2 blocks, 3 slots fragmented
  serve::KvStats s = kv.stats();
  EXPECT_EQ(s.used_tokens, 5);
  EXPECT_EQ(s.fragmented_tokens, 3);
  EXPECT_EQ(s.free_tokens, 8);
  EXPECT_EQ(s.used_tokens + s.fragmented_tokens + s.free_tokens,
            s.capacity_tokens);
  kv.audit();

  ASSERT_TRUE(kv.grow(1, 8));  // fills the tail block, no new allocation
  EXPECT_EQ(kv.stats().fragmented_tokens, 0);
  ASSERT_TRUE(kv.grow(1, 9));  // third block
  EXPECT_EQ(kv.free_blocks(), 1);
  EXPECT_FALSE(kv.grow(1, 17));  // 5 blocks needed, pool holds 4
  EXPECT_EQ(kv.reserved_tokens(1), 12);  // the failed grow changed nothing
  ASSERT_TRUE(kv.grow(1, 13));  // fourth and final block
  EXPECT_EQ(kv.free_blocks(), 0);
  EXPECT_FALSE(kv.can_reserve(1));
  kv.audit();

  kv.release(1);
  EXPECT_EQ(kv.free_blocks(), 4);
  EXPECT_FALSE(kv.holds(1));
  EXPECT_EQ(kv.peak_used_blocks(), 4);
  kv.audit();

  // Freed blocks are immediately reusable by another request.
  ASSERT_TRUE(kv.reserve(2, 16));
  EXPECT_EQ(kv.free_blocks(), 0);
  kv.release(2);
  kv.audit();
}

TEST(PagedKv, FailedOperationsChangeNothing) {
  serve::PagedKvAllocator kv(pool(2));
  ASSERT_TRUE(kv.reserve(1, 4));
  EXPECT_FALSE(kv.reserve(2, 8));  // 2 blocks needed, 1 free
  EXPECT_FALSE(kv.holds(2));
  EXPECT_EQ(kv.free_blocks(), 1);
  EXPECT_FALSE(kv.grow(1, 12));  // 3 blocks needed, pool has 2
  EXPECT_EQ(kv.reserved_tokens(1), 4);
  kv.audit();
  // Double reservation under one id is a caller bug, not a soft failure.
  EXPECT_THROW((void)kv.reserve(1, 1), sim::InvalidArgument);
  kv.release(1);
  EXPECT_THROW(kv.release(1), sim::InvalidArgument);
}

// ---------------------------------------------------------------- scheduler

serve::ServeConfig tiny_serve() {
  serve::ServeConfig cfg;
  cfg.model = nn::DecodeConfig::tiny();
  cfg.max_batch = 2;
  cfg.prefill_chunk = 4;
  cfg.ctx_bucket = 4;
  cfg.block_tokens = 4;
  cfg.kv_budget_bytes = 4096;  // 8 blocks of 4 tokens (tiny: 128 B/token)
  return cfg;
}

TEST(Scheduler, SameSeedRunsAreByteIdentical) {
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream());
  serve::ContinuousBatchScheduler a(rt, tiny_serve());
  serve::ContinuousBatchScheduler b(rt, tiny_serve());
  const serve::ServeReport ra = a.run(stream);
  const serve::ServeReport rb = b.run(stream);
  EXPECT_EQ(ra.to_report(), rb.to_report());
  EXPECT_EQ(ra.summary.offered, 10);
  EXPECT_EQ(ra.summary.completed, 10);
  EXPECT_EQ(ra.summary.rejected, 0);
  // Every request yields output_len tokens, first token included.
  std::int64_t want = 0;
  for (const serve::Request& r : stream) want += r.output_len;
  EXPECT_EQ(ra.summary.tokens_out, want);
  EXPECT_GT(ra.summary.throughput_tok_s, 0.0);
}

TEST(Scheduler, TinyPoolPreemptsAndStillCompletesEveryone) {
  // 3 blocks of 4 tokens; two co-resident requests peak at 2 blocks each,
  // so one must preempt the other and recompute its KV after resuming.
  ::setenv("GAUDI_VALIDATE", "1", 1);  // audit the allocator every iteration
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ServeConfig cfg = tiny_serve();
  cfg.kv_budget_bytes = 3 * 4 * 128;
  std::vector<serve::Request> stream(2);
  stream[0].id = 0;
  stream[0].prompt_len = 4;
  stream[0].output_len = 4;
  stream[1].id = 1;
  stream[1].prompt_len = 4;
  stream[1].output_len = 4;
  serve::ContinuousBatchScheduler sched(rt, cfg);
  const serve::ServeReport r = sched.run(stream);
  ::unsetenv("GAUDI_VALIDATE");
  EXPECT_EQ(r.summary.completed, 2);
  EXPECT_GE(r.summary.preemptions, 1);
  EXPECT_GT(r.summary.recomputed_tokens, 0);
  EXPECT_EQ(r.kv_total_blocks, 3);
  EXPECT_LE(r.kv_peak_blocks, 3);
  EXPECT_EQ(r.summary.tokens_out, 8);
}

TEST(Scheduler, RejectsRequestsThatCanNeverFit) {
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ServeConfig cfg = tiny_serve();  // tiny model: max_seq = 16
  std::vector<serve::Request> stream(2);
  stream[0].id = 0;
  stream[0].prompt_len = 14;
  stream[0].output_len = 4;  // peak rows 17 > max_seq
  stream[1].id = 1;
  stream[1].prompt_len = 2;
  stream[1].output_len = 2;
  serve::ContinuousBatchScheduler sched(rt, cfg);
  const serve::ServeReport r = sched.run(stream);
  EXPECT_EQ(r.summary.rejected, 1);
  EXPECT_EQ(r.summary.completed, 1);
  ASSERT_EQ(r.requests.size(), 2u);
  EXPECT_EQ(r.requests[0].outcome, serve::RequestOutcome::kRejected);
  EXPECT_EQ(r.requests[1].outcome, serve::RequestOutcome::kCompleted);
}

// ----------------------------------------------- decode bugfix regressions

TEST(DecodeValidation, PrefillNamesTheLimit) {
  graph::Graph g;
  const nn::DecodeConfig cfg = nn::DecodeConfig::tiny();
  EXPECT_THROW((void)nn::build_gpt_prefill(g, cfg, 0), sim::InvalidArgument);
  try {
    (void)nn::build_gpt_prefill(g, cfg, 17);
    FAIL() << "over-long prefill accepted";
  } catch (const sim::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("max_seq=16"), std::string::npos) << what;
    EXPECT_NE(what.find("17"), std::string::npos) << what;
  }
}

TEST(DecodeValidation, DecodeStepNamesTheLimit) {
  graph::Graph g;
  const nn::DecodeConfig cfg = nn::DecodeConfig::tiny();
  EXPECT_THROW((void)nn::build_gpt_decode_step(g, cfg, 0),
               sim::InvalidArgument);
  try {
    (void)nn::build_gpt_decode_step(g, cfg, 16);  // appended token overflows
    FAIL() << "full-context decode step accepted";
  } catch (const sim::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("max_seq=16"), std::string::npos) << what;
    EXPECT_NE(what.find("16"), std::string::npos) << what;
  }
}

// -------------------------------------------------- CLI bugfix regressions

int run(std::initializer_list<const char*> args, std::string* out = nullptr) {
  std::vector<std::string> v{"gaudisim_cli"};
  v.insert(v.end(), args.begin(), args.end());
  std::ostringstream os;
  const int rc = core::run_cli(v, os);
  if (out) *out = os.str();
  return rc;
}

TEST(ParseI64, AcceptsIntegersRejectsGarbage) {
  EXPECT_EQ(core::parse_i64("42", "x"), 42);
  EXPECT_EQ(core::parse_i64("-7", "x"), -7);
  EXPECT_THROW((void)core::parse_i64("", "x"), sim::InvalidArgument);
  EXPECT_THROW((void)core::parse_i64("abc", "x"), sim::InvalidArgument);
  EXPECT_THROW((void)core::parse_i64("12abc", "x"), sim::InvalidArgument);
  EXPECT_THROW((void)core::parse_i64("1.5", "x"), sim::InvalidArgument);
  EXPECT_THROW((void)core::parse_i64("99999999999999999999", "x"),
               sim::InvalidArgument);
  try {
    (void)core::parse_i64("12abc", "option --sizes");
    FAIL();
  } catch (const sim::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--sizes"), std::string::npos) << what;
    EXPECT_NE(what.find("12abc"), std::string::npos) << what;
  }
}

TEST(CliRegression, MalformedSizesIsUsageErrorNotTerminate) {
  std::string out;
  EXPECT_EQ(run({"mme-vs-tpc", "--sizes", "12x"}, &out), 1);
  EXPECT_NE(out.find("error:"), std::string::npos);
  EXPECT_NE(out.find("--sizes"), std::string::npos);
  EXPECT_EQ(run({"mme-vs-tpc", "--sizes", "128,,256"}, &out), 1);
  EXPECT_EQ(run({"mme-vs-tpc", "--sizes", "99999999999999999999"}, &out), 1);
}

TEST(CliRegression, TrailingGarbageIntegersAreRejected) {
  std::string out;
  EXPECT_EQ(run({"profile-layer", "--batch", "foo"}, &out), 1);
  EXPECT_NE(out.find("error:"), std::string::npos);
  EXPECT_EQ(run({"profile-layer", "--seq", "12abc"}, &out), 1);
  EXPECT_NE(out.find("trailing"), std::string::npos);
  EXPECT_EQ(run({"serve", "--requests", "3x"}, &out), 1);
  EXPECT_NE(out.find("--requests"), std::string::npos);
  EXPECT_EQ(run({"serve", "--rate", "fast"}, &out), 1);
  EXPECT_NE(out.find("--rate"), std::string::npos);
  EXPECT_EQ(run({"train", "--sdc-rate", "0.5x"}, &out), 1);
  EXPECT_NE(out.find("trailing"), std::string::npos);
}

TEST(CliServe, SmokeRunIsDeterministic) {
  const std::initializer_list<const char*> cmd = {
      "serve",         "--requests", "4",  "--rate",       "40",
      "--prompt-min",  "8",          "--prompt-max", "16",
      "--output-min",  "4",          "--output-max", "8",
      "--max-batch",   "2",          "--prefill-chunk", "16",
      "--kv-mb",       "4"};
  std::string out;
  ASSERT_EQ(run(cmd, &out), 0);
  EXPECT_NE(out.find("serve: 4 requests"), std::string::npos);
  EXPECT_NE(out.find("4 offered, 4 completed"), std::string::npos);
  EXPECT_NE(out.find("TTFT:"), std::string::npos);
  EXPECT_NE(out.find("kv pool:"), std::string::npos);
  std::string again;
  ASSERT_EQ(run(cmd, &again), 0);
  EXPECT_EQ(out, again);
  // Unknown options still fail loudly.
  EXPECT_EQ(run({"serve", "--nonsense", "1"}, &out), 1);
  EXPECT_NE(out.find("unknown option"), std::string::npos);
}

// ---------------------------------------------------- deadlines + fast path

TEST(Scheduler, ExpiredDeadlineDropsInsteadOfWastingTheSlot) {
  // One batch slot: request 1 queues behind request 0 and its budget expires
  // before a slot ever frees, so admission drops it instead of prefilling
  // work whose answer is already too late.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ServeConfig cfg = tiny_serve();
  cfg.max_batch = 1;
  std::vector<serve::Request> stream(2);
  stream[0].id = 0;
  stream[0].prompt_len = 8;
  stream[0].output_len = 8;
  stream[1].id = 1;
  stream[1].prompt_len = 2;
  stream[1].output_len = 2;
  stream[1].deadline = sim::SimTime::from_ms(0.001);
  serve::ContinuousBatchScheduler sched(rt, cfg);
  const serve::ServeReport r = sched.run(stream);
  EXPECT_EQ(r.summary.completed, 1);
  EXPECT_EQ(r.summary.dropped, 1);
  EXPECT_EQ(r.deadline_drops, 1);
  ASSERT_EQ(r.requests.size(), 2u);
  EXPECT_EQ(r.requests[0].outcome, serve::RequestOutcome::kCompleted);
  EXPECT_EQ(r.requests[1].outcome, serve::RequestOutcome::kDropped);
  EXPECT_NE(r.to_report().find(
                "outcomes: 0 rejected, 1 dropped, 0 shed, 0 failed, "
                "0 timed-out"),
            std::string::npos);
}

// ---------------------------------------------------------- fault tolerance

/// Injector firing only chip failures, at `rate` per iteration.
sim::FaultInjector chip_killer(double rate, std::uint64_t seed = 0x5EED) {
  sim::FaultProfile p;
  p.chip_failure_rate = rate;
  return sim::FaultInjector{seed, p};
}

TEST(FaultServe, ChipFailureRetriesAndCompletesEveryone) {
  // Kill-and-recover: chip failures abort in-flight batches and invalidate
  // their KV blocks, yet with a generous retry budget every request still
  // completes.  GAUDI_VALIDATE audits the allocator bijection every
  // iteration, including the mass release a mid-iteration failure forces.
  ::setenv("GAUDI_VALIDATE", "1", 1);
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ServeConfig cfg = tiny_serve();
  cfg.faults = chip_killer(0.2);
  cfg.retry_max = 16;
  cfg.retry_backoff = sim::SimTime::from_ms(0.5);
  cfg.chip_restart = sim::SimTime::from_ms(1.0);
  const auto stream = serve::poisson_stream(tiny_stream());
  serve::ContinuousBatchScheduler sched(rt, cfg);
  const serve::ServeReport r = sched.run(stream);
  ::unsetenv("GAUDI_VALIDATE");
  EXPECT_GE(r.chip_failures, 1);
  EXPECT_TRUE(r.faults_enabled);
  EXPECT_EQ(r.summary.completed, 10);
  EXPECT_EQ(r.summary.failed, 0);
  EXPECT_GE(r.summary.fault_retries, 1);
  EXPECT_GT(r.summary.wasted_tokens, 0);
  EXPECT_NE(r.to_report().find("faults:"), std::string::npos);

  // Same (stream, config, fault seed) replays byte-identically.
  serve::ContinuousBatchScheduler again(rt, cfg);
  EXPECT_EQ(r.to_report(), again.run(stream).to_report());
}

TEST(FaultServe, RetryBudgetExhaustionFails) {
  // Every iteration kills the chip and the budget allows no retries: every
  // admitted request ends in the typed kFailed outcome instead of looping.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ServeConfig cfg = tiny_serve();
  cfg.faults = chip_killer(1.0);
  cfg.retry_max = 0;
  std::vector<serve::Request> stream(2);
  stream[0].id = 0;
  stream[0].prompt_len = 4;
  stream[0].output_len = 2;
  stream[1].id = 1;
  stream[1].prompt_len = 2;
  stream[1].output_len = 2;
  serve::ContinuousBatchScheduler sched(rt, cfg);
  const serve::ServeReport r = sched.run(stream);
  EXPECT_EQ(r.summary.completed, 0);
  EXPECT_EQ(r.summary.failed, 2);
  EXPECT_GT(r.summary.wasted_tokens, 0);
  EXPECT_EQ(r.summary.availability, 0.0);
  ASSERT_EQ(r.requests.size(), 2u);
  EXPECT_EQ(r.requests[0].outcome, serve::RequestOutcome::kFailed);
  EXPECT_EQ(r.requests[1].outcome, serve::RequestOutcome::kFailed);
  // Failed requests must not contribute latency samples.
  EXPECT_TRUE(std::isnan(r.summary.ttft_p50_ms));
}

TEST(FaultServe, DisabledInjectorIsByteIdenticalToFaultFreePath) {
  // Handing the scheduler a disabled injector — plus every fault knob that
  // only matters once faults fire — must not change a byte of the report.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream());
  serve::ContinuousBatchScheduler plain(rt, tiny_serve());
  serve::ServeConfig cfg = tiny_serve();
  cfg.faults = sim::FaultInjector{0x99, sim::FaultProfile::disabled()};
  cfg.retry_max = 7;
  cfg.retry_backoff = sim::SimTime::from_ms(123.0);
  cfg.chip_restart = sim::SimTime::from_ms(456.0);
  serve::ContinuousBatchScheduler disabled(rt, cfg);
  EXPECT_EQ(plain.run(stream).to_report(), disabled.run(stream).to_report());
}

TEST(FaultServe, WatchdogAbortsStalledRequests) {
  // A watchdog tighter than one iteration fires before the first token:
  // the request ends kTimedOut and its samples stay out of the percentiles.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ServeConfig cfg = tiny_serve();
  cfg.watchdog = sim::SimTime::from_ps(1);
  std::vector<serve::Request> stream(1);
  stream[0].id = 0;
  stream[0].prompt_len = 8;
  stream[0].output_len = 4;
  serve::ContinuousBatchScheduler sched(rt, cfg);
  const serve::ServeReport r = sched.run(stream);
  EXPECT_EQ(r.summary.completed, 0);
  EXPECT_EQ(r.summary.timed_out, 1);
  ASSERT_EQ(r.requests.size(), 1u);
  EXPECT_EQ(r.requests[0].outcome, serve::RequestOutcome::kTimedOut);
  EXPECT_NE(r.to_report().find("TTFT:     p50 n/a"), std::string::npos);
  EXPECT_NE(r.to_report().find("availability 0.0%"), std::string::npos);
}

TEST(FaultServe, PreemptedPastDeadlineDropsNotRecomputes) {
  // Preemption x deadline x fault interaction: a preempted request whose
  // budget expired while requeued must drop at re-admission instead of
  // re-reserving KV and recomputing its prefill.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ServeConfig cfg = tiny_serve();
  cfg.kv_budget_bytes = 3 * 4 * 128;  // 3 blocks: forces a preemption
  std::vector<serve::Request> stream(2);
  stream[0].id = 0;
  stream[0].prompt_len = 4;
  stream[0].output_len = 4;
  // Request 0 is the deterministic preemption victim (the grower never
  // preempts itself); its budget expires before re-admission.
  stream[0].deadline = sim::SimTime::from_ps(1);
  stream[1].id = 1;
  stream[1].prompt_len = 4;
  stream[1].output_len = 4;
  serve::ContinuousBatchScheduler sched(rt, cfg);
  const serve::ServeReport r = sched.run(stream);
  EXPECT_EQ(r.summary.completed, 1);
  EXPECT_EQ(r.summary.dropped, 1);
  EXPECT_GE(r.summary.preemptions, 1);
  EXPECT_EQ(r.deadline_drops, 1);
  ASSERT_EQ(r.requests.size(), 2u);
  EXPECT_EQ(r.requests[0].outcome, serve::RequestOutcome::kDropped);
  EXPECT_GE(r.requests[0].preemptions, 1);
  EXPECT_EQ(r.requests[1].outcome, serve::RequestOutcome::kCompleted);
}

TEST(FaultServe, ShedsLowestPriorityArrivalsUnderOverload) {
  // One slot, backlog bound 1: of the three queued arrivals the two with
  // the lowest priority shed; the highest-priority one waits and completes.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ServeConfig cfg = tiny_serve();
  cfg.max_batch = 1;
  cfg.shed_queue_depth = 1;
  std::vector<serve::Request> stream(4);
  for (std::int64_t i = 0; i < 4; ++i) {
    stream[i].id = i;
    stream[i].prompt_len = 2;
    stream[i].output_len = 2;
  }
  stream[1].priority = 2;
  stream[2].priority = 1;
  stream[3].priority = 0;
  serve::ContinuousBatchScheduler sched(rt, cfg);
  const serve::ServeReport r = sched.run(stream);
  EXPECT_EQ(r.summary.completed, 2);
  EXPECT_EQ(r.summary.shed, 2);
  ASSERT_EQ(r.requests.size(), 4u);
  EXPECT_EQ(r.requests[0].outcome, serve::RequestOutcome::kCompleted);
  EXPECT_EQ(r.requests[1].outcome, serve::RequestOutcome::kCompleted);
  EXPECT_EQ(r.requests[2].outcome, serve::RequestOutcome::kShed);
  EXPECT_EQ(r.requests[3].outcome, serve::RequestOutcome::kShed);
}

TEST(FaultServe, FaultRunTimingOnlyParityHolds) {
  // The timing-only fast path must replay the exact fault schedule: cost
  // probes stay clean baselines (the memo is fault-free) and the scheduler
  // layers the same deterministic stretches on top in either mode.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream());
  sim::FaultProfile prof;
  prof.chip_failure_rate = 0.1;
  prof.tpc_straggler_rate = 0.3;
  prof.hbm_pressure_rate = 0.2;
  serve::ServeConfig functional = tiny_serve();
  functional.faults = sim::FaultInjector{0x5EED, prof};
  functional.retry_max = 16;
  functional.timing_only = false;
  serve::ServeConfig fast = functional;
  fast.timing_only = true;
  serve::ContinuousBatchScheduler a(rt, functional);
  serve::ContinuousBatchScheduler b(rt, fast);
  const serve::ServeReport ra = a.run(stream);
  EXPECT_EQ(ra.to_report(), b.run(stream).to_report());
  EXPECT_GE(ra.tpc_stragglers + ra.hbm_stalls + ra.chip_failures, 1);
}

TEST(CliServe, RejectsNonPositiveGeometryNamingTheFlag) {
  const auto expect_named_error = [](const char* flag, const char* value) {
    std::string out;
    EXPECT_EQ(run({"serve", flag, value}, &out), 1) << flag;
    EXPECT_NE(out.find("error:"), std::string::npos) << out;
    EXPECT_NE(out.find(flag), std::string::npos) << out;
  };
  expect_named_error("--prefill-chunk", "0");
  expect_named_error("--ctx-bucket", "0");
  expect_named_error("--block-tokens", "-3");
  expect_named_error("--kv-mb", "0");
  expect_named_error("--retry-max", "-1");
  expect_named_error("--watchdog-ms", "-5");
  expect_named_error("--shed-queue-depth", "-2");
  expect_named_error("--shed-free-blocks", "-1");
}

TEST(CliServe, FaultFlagsAreDeterministicAndReportFaults) {
  const std::initializer_list<const char*> cmd = {
      "serve",          "--requests",   "6",    "--rate",        "40",
      "--prompt-min",   "4",            "--prompt-max", "8",
      "--output-min",   "2",            "--output-max", "4",
      "--max-batch",    "2",            "--prefill-chunk", "8",
      "--kv-mb",        "4",            "--faults",
      "--mtbf",         "25",           "--fault-seed",  "7",
      "--retry-max",    "4",            "--watchdog-ms", "4000"};
  std::string out;
  ASSERT_EQ(run(cmd, &out), 0);
  EXPECT_NE(out.find("faults:"), std::string::npos) << out;
  EXPECT_NE(out.find("availability"), std::string::npos);
  std::string again;
  ASSERT_EQ(run(cmd, &again), 0);
  EXPECT_EQ(out, again);
}

TEST(Scheduler, TimingOnlyModeReproducesTheFunctionalReport) {
  // The fast path must leave every reported number — latency percentiles,
  // batch occupancy, cache counters — untouched.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream());
  serve::ServeConfig functional = tiny_serve();
  functional.timing_only = false;
  serve::ServeConfig fast = tiny_serve();
  fast.timing_only = true;
  serve::ContinuousBatchScheduler a(rt, functional);
  serve::ContinuousBatchScheduler b(rt, fast);
  const std::string ra = a.run(stream).to_report();
  const std::string rb = b.run(stream).to_report();
  EXPECT_EQ(ra, rb);
}

TEST(ServePricer, SecondSchedulerPricesFromTheMemo) {
  graph::TimingMemo& memo = graph::TimingMemo::global();
  memo.clear();
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ServeConfig fast = tiny_serve();
  fast.timing_only = true;
  serve::ServeConfig functional = fast;
  functional.timing_only = false;

  // One request: a 4-token prefill chunk, then a decode step over 4 rows —
  // the same bucket in both phases.  They are different graphs, so each is
  // its own memo entry: the first run reuses nothing, and still matches
  // the functional run, which never reads the memo.
  std::vector<serve::Request> one(1);
  one[0].prompt_len = 4;
  one[0].output_len = 2;
  serve::ContinuousBatchScheduler first(rt, fast);
  const serve::ServeReport r1 = first.run(one);
  EXPECT_EQ(r1.prefill_chunks, 1);
  EXPECT_EQ(r1.decode_steps, 1);
  EXPECT_EQ(r1.compiled_decode_steps, 1u);
  EXPECT_EQ(memo.hits(), 0u);
  serve::ContinuousBatchScheduler reference(rt, functional);
  EXPECT_EQ(r1.to_report(), reference.run(one).to_report());

  // A second scheduler with the same config prices the whole stream from
  // the entries the first one left behind.
  const auto stream = serve::poisson_stream(tiny_stream());
  serve::ContinuousBatchScheduler a(rt, fast);
  const std::string ra = a.run(stream).to_report();
  const std::uint64_t misses = memo.misses();
  const std::uint64_t hits = memo.hits();
  serve::ContinuousBatchScheduler b(rt, fast);
  EXPECT_EQ(b.run(stream).to_report(), ra);
  EXPECT_EQ(memo.misses(), misses);
  EXPECT_GT(memo.hits(), hits);
}

TEST(CliServe, UsageMentionsServing) {
  std::string out;
  run({"help"}, &out);
  EXPECT_NE(out.find("serve"), std::string::npos);
  EXPECT_NE(out.find("--max-batch"), std::string::npos);
  EXPECT_NE(out.find("--kv-mb"), std::string::npos);
  EXPECT_NE(out.find("--arrivals"), std::string::npos);
}

TEST(CliServe, FaultFlagsAreValidatedWithNamedErrors) {
  // Every fault/robustness flag rejects negative or garbled values with a
  // message naming the flag — the --max-batch discipline, extended.
  std::string out;
  EXPECT_EQ(run({"serve", "--watchdog-ms", "-1"}, &out), 1);
  EXPECT_NE(out.find("--watchdog-ms"), std::string::npos);
  EXPECT_EQ(run({"serve", "--shed-queue-depth", "-2"}, &out), 1);
  EXPECT_NE(out.find("--shed-queue-depth"), std::string::npos);
  EXPECT_EQ(run({"serve", "--shed-free-blocks", "-1"}, &out), 1);
  EXPECT_NE(out.find("--shed-free-blocks"), std::string::npos);
  EXPECT_EQ(run({"serve", "--retry-max", "-3"}, &out), 1);
  EXPECT_NE(out.find("--retry-max"), std::string::npos);
  EXPECT_EQ(run({"serve", "--retry-backoff-ms", "-1"}, &out), 1);
  EXPECT_NE(out.find("--retry-backoff-ms"), std::string::npos);
  EXPECT_EQ(run({"serve", "--retry-backoff-max-ms", "0"}, &out), 1);
  EXPECT_NE(out.find("--retry-backoff-max-ms"), std::string::npos);
  // --mtbf must be rejected even when --faults is absent (the injector
  // would be disabled, but a nonsense value is still a user error)...
  EXPECT_EQ(run({"serve", "--mtbf", "-5"}, &out), 1);
  EXPECT_NE(out.find("--mtbf"), std::string::npos);
  // ...and garbage is a parse error, not a silent zero.
  EXPECT_EQ(run({"serve", "--watchdog-ms", "soon"}, &out), 1);
  EXPECT_NE(out.find("--watchdog-ms"), std::string::npos);
  EXPECT_EQ(run({"serve", "--retry-max", "3x"}, &out), 1);
  EXPECT_NE(out.find("--retry-max"), std::string::npos);
}

TEST(FaultServe, WatchdogShedAndRetryComposeToOneTypedOutcome) {
  // A backed-off retry can simultaneously be past its deadline, sheddable
  // under overload, and watchdog-stalled.  Whatever wins, each request must
  // resolve to exactly one typed outcome, deterministically.
  ::setenv("GAUDI_VALIDATE", "1", 1);
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ServeConfig cfg = tiny_serve();
  cfg.max_batch = 1;
  cfg.faults = chip_killer(0.3);
  cfg.retry_max = 2;
  cfg.retry_backoff = sim::SimTime::from_ms(2.0);
  cfg.chip_restart = sim::SimTime::from_ms(4.0);
  cfg.watchdog = sim::SimTime::from_ms(30.0);
  cfg.shed_queue_depth = 2;
  serve::StreamConfig scfg = tiny_stream();
  scfg.num_requests = 12;
  scfg.arrival_rate_rps = 400.0;  // burst: backlog deep enough to shed
  auto stream = serve::poisson_stream(scfg);
  for (auto& q : stream) q.deadline = sim::SimTime::from_ms(25.0);
  serve::ContinuousBatchScheduler sched(rt, cfg);
  const serve::ServeReport r = sched.run(stream);
  const serve::ServeSummary& s = r.summary;
  EXPECT_EQ(s.offered, 12);
  EXPECT_EQ(s.completed + s.rejected + s.dropped + s.shed + s.timed_out +
                s.failed,
            s.offered);
  // The interaction actually exercised all three mechanisms.
  EXPECT_GE(r.chip_failures, 1);
  EXPECT_GE(s.shed + s.dropped + s.timed_out, 1);
  // Deterministic: the same config and stream reproduce the bytes.
  serve::ContinuousBatchScheduler again(rt, cfg);
  EXPECT_EQ(r.to_report(), again.run(stream).to_report());
  ::unsetenv("GAUDI_VALIDATE");
}

// ----------------------------------------------------------------- stretch

/// One batch slot over the tiny model with room for long outputs: 64
/// positions, so its one 64-token context bucket is the top one, and four
/// 64-row KV blocks.
serve::ServeConfig stretch_serve() {
  serve::ServeConfig cfg = tiny_serve();
  cfg.model.max_seq = 64;
  cfg.max_batch = 1;
  cfg.prefill_chunk = 16;
  cfg.ctx_bucket = 64;
  cfg.block_tokens = 64;
  cfg.kv_budget_bytes = 4 * 64 * 128;
  cfg.timing_only = true;
  return cfg;
}

serve::Request lone_request(std::int64_t prompt_len, std::int64_t output_len) {
  serve::Request r;
  r.prompt_len = prompt_len;
  r.output_len = output_len;
  return r;
}

/// Admits `r` and runs its one-chunk prefill; returns the instant of its
/// first token, from which it decodes.
sim::SimTime prefill(serve::ContinuousBatchScheduler& sched,
                     const serve::Request& r) {
  sched.enqueue(r);
  const serve::ContinuousBatchScheduler::StepResult sr =
      sched.step(sim::SimTime::zero());
  EXPECT_EQ(sched.iterations(), 1);
  EXPECT_EQ(sr.events.size(), 1u);
  EXPECT_EQ(sr.events.at(0).kind, serve::ReplicaEventKind::kFirstToken);
  return sr.end;
}

/// The one event of `sr`, which must be a token event.
serve::ReplicaEvent only_token(
    const serve::ContinuousBatchScheduler::StepResult& sr) {
  EXPECT_EQ(sr.events.size(), 1u);
  if (sr.events.empty()) return {};
  EXPECT_EQ(sr.events[0].kind, serve::ReplicaEventKind::kToken);
  return sr.events[0];
}

TEST(Stretch, LoneDecodeRequestRunsAsOneCountedTokenEvent) {
  // Decoding alone with nothing arriving, every iteration repeats the one
  // before: one step runs them all as one token event of count k, k steps
  // of T after `now`, and stops one token short of the last.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ContinuousBatchScheduler sched(rt, stretch_serve());
  const sim::SimTime now = prefill(sched, lone_request(4, 40));
  const auto sr = sched.step(now, sim::SimTime::max());
  const serve::ReplicaEvent e = only_token(sr);
  EXPECT_EQ(e.count, 38);  // tokens 2..39 of 40
  EXPECT_GT(e.aux, 0);
  EXPECT_EQ(sr.end, now + sim::SimTime::from_ps(e.aux) * e.count);
  EXPECT_EQ(e.at, sr.end);
  EXPECT_EQ(sched.iterations(), 1 + 38);

  // One iteration at a time lands at the same instant, T apart.
  serve::ContinuousBatchScheduler twin(rt, stretch_serve());
  sim::SimTime t = prefill(twin, lone_request(4, 40));
  for (int i = 0; i < 38; ++i) {
    const auto one = twin.step(t);
    const serve::ReplicaEvent token = only_token(one);
    EXPECT_EQ(token.count, 1);
    EXPECT_EQ(token.aux, e.aux);
    t = one.end;
  }
  EXPECT_EQ(t, sr.end);
  EXPECT_EQ(twin.iterations(), sched.iterations());
}

TEST(Stretch, StopsAtTheBlockBoundary) {
  // 8-row blocks: the prompt's block holds rows 1..8, so the step that
  // appends row 5 stretches to row 8 and allocates nothing; the next one
  // allocates a block for row 9 and stretches to row 16.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ServeConfig cfg = stretch_serve();
  cfg.block_tokens = 8;
  cfg.kv_budget_bytes = 8 * 8 * 128;  // 8 blocks
  serve::ContinuousBatchScheduler sched(rt, cfg);
  const sim::SimTime now = prefill(sched, lone_request(4, 40));
  EXPECT_EQ(sched.free_kv_blocks(), 7);
  const auto first = sched.step(now, sim::SimTime::max());
  EXPECT_EQ(only_token(first).count, 4);  // rows 5..8
  EXPECT_EQ(sched.free_kv_blocks(), 7);
  const auto second = sched.step(first.end, sim::SimTime::max());
  EXPECT_EQ(only_token(second).count, 8);  // rows 9..16
  EXPECT_EQ(sched.free_kv_blocks(), 6);
}

TEST(Stretch, StopsAtTheBucketEdge) {
  // 8-token context buckets: the step over 4 rows repeats over 5..8 rows
  // (bucket 8), and the next step starts bucket 16 and stops at its edge.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ServeConfig cfg = stretch_serve();
  cfg.ctx_bucket = 8;
  serve::ContinuousBatchScheduler sched(rt, cfg);
  const sim::SimTime now = prefill(sched, lone_request(4, 40));
  const auto first = sched.step(now, sim::SimTime::max());
  EXPECT_EQ(only_token(first).count, 5);  // over 4..8 rows
  const auto second = sched.step(first.end, sim::SimTime::max());
  EXPECT_EQ(only_token(second).count, 8);  // over 9..16 rows
  EXPECT_EQ(sched.iterations(), 1 + 5 + 8);
}

TEST(Stretch, StopsOneTokenBeforeCompletion) {
  // The last token completes the request and frees its KV, which only a
  // single iteration does.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ContinuousBatchScheduler sched(rt, stretch_serve());
  const sim::SimTime now = prefill(sched, lone_request(4, 10));
  const auto first = sched.step(now, sim::SimTime::max());
  EXPECT_EQ(only_token(first).count, 8);  // tokens 2..9
  const auto last = sched.step(first.end, sim::SimTime::max());
  ASSERT_EQ(last.events.size(), 2u);
  EXPECT_EQ(last.events[0].kind, serve::ReplicaEventKind::kToken);
  EXPECT_EQ(last.events[0].count, 1);
  EXPECT_EQ(last.events[1].kind, serve::ReplicaEventKind::kComplete);
  EXPECT_EQ(sched.iterations(), 1 + 8 + 1);
  EXPECT_FALSE(sched.has_work());
}

TEST(Stretch, StopsBeforeUntil) {
  // Every iteration that starts before `until` runs, the last one ending at
  // or after it; one that would start at `until` is left to the caller.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ContinuousBatchScheduler sched(rt, stretch_serve());
  const sim::SimTime now = prefill(sched, lone_request(4, 40));
  const auto one = sched.step(now);
  const sim::SimTime step = sim::SimTime::from_ps(only_token(one).aux);
  ASSERT_EQ(one.end, now + step);
  const auto three = sched.step(one.end, one.end + step * 3);
  EXPECT_EQ(only_token(three).count, 3);
  EXPECT_EQ(three.end, one.end + step * 3);
  const sim::SimTime t = three.end;
  const auto past = sched.step(t, t + step * 2 + sim::SimTime::from_ps(1));
  EXPECT_EQ(only_token(past).count, 3);
  EXPECT_EQ(past.end, t + step * 3);
  EXPECT_EQ(sched.iterations(), 1 + 1 + 3 + 3);
}

TEST(Stretch, NoHorizonRunsOneIteration) {
  // The router's call: no horizon, or one the first iteration already
  // reaches, runs exactly one iteration.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ContinuousBatchScheduler sched(rt, stretch_serve());
  const sim::SimTime now = prefill(sched, lone_request(4, 40));
  const auto a = sched.step(now);
  EXPECT_EQ(only_token(a).count, 1);
  EXPECT_EQ(sched.iterations(), 2);
  const auto b = sched.step(a.end, a.end);
  EXPECT_EQ(only_token(b).count, 1);
  const sim::SimTime step = b.end - a.end;
  const auto c = sched.step(b.end, b.end + step);
  EXPECT_EQ(only_token(c).count, 1);
  EXPECT_EQ(sched.iterations(), 4);
}

TEST(Stretch, EnabledFaultInjectorKeepsSingleIterations) {
  // Any iteration may fault, so none repeats another.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ServeConfig cfg = stretch_serve();
  sim::FaultProfile p;
  p.tpc_straggler_rate = 1e-12;
  cfg.faults = sim::FaultInjector{0x5EED, p};
  ASSERT_TRUE(cfg.faults.enabled());
  serve::ContinuousBatchScheduler sched(rt, cfg);
  const sim::SimTime now = prefill(sched, lone_request(4, 40));
  EXPECT_EQ(only_token(sched.step(now, sim::SimTime::max())).count, 1);
  EXPECT_EQ(sched.iterations(), 2);
}

TEST(Stretch, ResumedRequestStretchesFromItsFirstTokenHere) {
  // A resumed request re-prefills without a token, so its next gap runs
  // from a token on another replica: that step is not a repeat, and the
  // repeats after it start a run of their own.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ContinuousBatchScheduler sched(rt, stretch_serve());
  const sim::SimTime start = sim::SimTime::from_ms(1.0);
  sched.enqueue_resume(lone_request(4, 40), 5, sim::SimTime::zero(), 0,
                       start);
  const auto refill = sched.step(start, sim::SimTime::max());
  EXPECT_TRUE(refill.worked);
  EXPECT_TRUE(refill.events.empty());
  EXPECT_EQ(sched.iterations(), 1);
  const auto sr = sched.step(refill.end, sim::SimTime::max());
  ASSERT_EQ(sr.events.size(), 2u);
  EXPECT_EQ(sr.events[0].count, 1);
  EXPECT_EQ(sr.events[1].count, 33);  // tokens 7..39
  EXPECT_GT(sr.events[0].aux, sr.events[1].aux);
  EXPECT_EQ(sr.end, refill.end + sim::SimTime::from_ps(sr.events[1].aux) * 34);
}

// ------------------------------------------------------------ golden bytes

/// ITL samples behind a report's percentiles: every token of a completed
/// request after its first.
std::int64_t itl_samples(const std::vector<serve::RequestMetrics>& requests) {
  std::int64_t n = 0;
  for (const serve::RequestMetrics& m : requests) {
    if (m.outcome == serve::RequestOutcome::kCompleted) n += m.tokens_out - 1;
  }
  return n;
}

TEST(GoldenReport, ServeWithFaultsPreemptionTimeoutsAndDrops) {
  // Pinned bytes of a run with chip failures, preemption, watchdog timeouts
  // and deadline drops, so a change to the metrics path cannot move a
  // report unnoticed.  The options go through the CLI's parse site.
  const core::ServeOptions o = core::parse_serve_options(core::ArgParser(
      {"--requests", "120", "--rate", "40", "--kv-mb", "3", "--faults",
       "--mtbf", "40", "--fault-seed", "5", "--retry-max", "2",
       "--watchdog-ms", "250", "--deadline-ms", "450", "--prompt-min", "32",
       "--prompt-max", "96", "--output-min", "8", "--output-max", "32",
       "--block-tokens", "16", "--timing-only", "on"}));
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ContinuousBatchScheduler sched(rt, o.config);
  const serve::ServeReport r = sched.run(o.requests());
  EXPECT_GT(itl_samples(r.requests), 1000);
  EXPECT_EQ(r.to_report(),
    "requests: 120 offered, 99 completed, 30 preemptions, availability 82.5%\n"
    "outcomes: 0 rejected, 9 dropped, 0 shed, 1 failed, 11 timed-out\n"
    "tokens:   1989 generated, 1167 recomputed after preemption, 4764 wasted by faults (63 retries)\n"
    "TTFT:     p50 188.88 ms, p99 269.04 ms, mean 162.75 ms\n"
    "ITL:      p50 2.61 ms, p99 125.59 ms\n"
    "rate:     644.8 tok/s throughput, 579.9 tok/s goodput (97 of 99 inside deadline) over 3.085 s\n"
    "schedule: 553 iterations (534 decode steps, 185 prefill chunks), 2 compiled step graphs resident, 0 evicted\n"
    "kv pool:  24 of 24 blocks at peak, 62 token slots fragmented at peak\n"
    "faults:   17 chip failures, 21 hbm stalls, 48 tpc stragglers injected\n");
}

TEST(GoldenReport, ClusterWithHedgingMigrationAndDrain) {
  const core::ServeClusterOptions o =
      core::parse_serve_cluster_options(core::ArgParser(
          {"--requests", "120", "--rate", "80", "--replicas", "3", "--lb",
           "jsq", "--faults", "--mtbf", "80", "--fault-seed", "3",
           "--hedge-ms", "15", "--migrate", "--drain-replica", "0",
           "--drain-at-ms", "300", "--deadline-ms", "3000", "--output-min",
           "8", "--output-max", "24", "--timing-only", "on"}));
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ClusterRouter router(rt, o.config);
  const serve::ClusterReport r = router.run(o.requests());
  EXPECT_GT(itl_samples(r.requests), 1000);
  EXPECT_EQ(r.to_report(),
    "requests: 120 offered, 113 completed, 0 preemptions, availability 94.2%\n"
    "outcomes: 0 rejected, 0 dropped, 0 shed, 7 failed, 0 timed-out\n"
    "tokens:   1879 generated, 0 recomputed after preemption, 4818 wasted by faults (89 retries)\n"
    "TTFT:     p50 138.47 ms, p99 357.81 ms, mean 144.67 ms\n"
    "ITL:      p50 5.22 ms, p99 107.14 ms\n"
    "rate:     1054.0 tok/s throughput, 1022.6 tok/s goodput (113 of 113 inside deadline) over 1.783 s\n"
    "cluster:  3 replicas (jsq), 89 failovers, 8 breaker opens\n"
    "hedges:   31 launched, 7 won (22.6%), 384 rows wasted by losers\n"
    "faults:   9 chip failures across the fleet\n"
    "migrate:  39 started, 31 cut over, 8 aborted; 4295 rows kept (137 blocks, 30 link retries, 26.118 ms on the wire), 59 queue evacuations\n"
    "drain:    replica 0 drained cleanly\n"
    "replica 0: 7 dispatched, 6 completed, 1 chip failures, 2 failed over, availability 85.7%, 1 migrated in, 0 out\n"
    "replica 1: 134 dispatched, 62 completed, 4 chip failures, 30 failed over, availability 46.3%, 17 migrated in, 13 out\n"
    "replica 2: 158 dispatched, 45 completed, 4 chip failures, 65 failed over, availability 28.5%, 13 migrated in, 18 out\n");
}

}  // namespace
}  // namespace gaudi
