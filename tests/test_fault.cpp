// Fault-injection and resilience tests: env-variable parsing, seeded fault
// determinism, retry/backoff and elastic ring re-formation, checkpoint
// rollback accounting, and the zero-overhead guarantee of the disabled path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "graph/random_graph.hpp"
#include "graph/runtime.hpp"
#include "graph/validate.hpp"
#include "scaleout/checkpoint.hpp"
#include "scaleout/data_parallel.hpp"
#include "scaleout/pipeline.hpp"
#include "serve/migration.hpp"
#include "sim/env.hpp"
#include "tensor/ops.hpp"

namespace gaudi::scaleout {
namespace {

namespace ops = gaudi::tensor::ops;
using tensor::Shape;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// Environment-variable parsing (sim/env.hpp)
// ---------------------------------------------------------------------------

TEST(EnvParse, ClassifiesTheBooleanGrammar) {
  using sim::EnvFlag;
  EXPECT_EQ(sim::classify_env_flag(nullptr), EnvFlag::kUnset);
  for (const char* v : {"", "0", "false", "FALSE", "off", "Off", "no"}) {
    EXPECT_EQ(sim::classify_env_flag(v), EnvFlag::kOff) << "'" << v << "'";
  }
  for (const char* v : {"1", "true", "True", "on", "ON", "yes", "YES"}) {
    EXPECT_EQ(sim::classify_env_flag(v), EnvFlag::kOn) << "'" << v << "'";
  }
  for (const char* v : {"2", "yep", "enable", " 1", "1 ", "tru"}) {
    EXPECT_EQ(sim::classify_env_flag(v), EnvFlag::kUnrecognized)
        << "'" << v << "'";
  }
}

TEST(EnvParse, FlagMapsRecognizedValuesAndFallsBackOnGarbage) {
  // Fresh variable names per case: the warn-once latch is per variable.
  ::setenv("GAUDI_TEST_FLAG_ON", "yes", 1);
  EXPECT_TRUE(sim::env_flag("GAUDI_TEST_FLAG_ON", false));
  ::setenv("GAUDI_TEST_FLAG_OFF", "0", 1);
  EXPECT_FALSE(sim::env_flag("GAUDI_TEST_FLAG_OFF", true));
  EXPECT_FALSE(sim::env_flag("GAUDI_TEST_FLAG_UNSET_XYZ", true));
  // An unrecognized value yields the caller's fallback, not a coercion.
  ::setenv("GAUDI_TEST_FLAG_BAD", "banana", 1);
  EXPECT_TRUE(sim::env_flag("GAUDI_TEST_FLAG_BAD", true));
  ::setenv("GAUDI_TEST_FLAG_BAD2", "banana", 1);
  EXPECT_FALSE(sim::env_flag("GAUDI_TEST_FLAG_BAD2", false));
}

TEST(EnvParse, U64ParsesDigitsAndFallsBackOnGarbage) {
  ::setenv("GAUDI_TEST_U64_OK", "123456", 1);
  EXPECT_EQ(sim::env_u64("GAUDI_TEST_U64_OK", 7), 123456u);
  ::setenv("GAUDI_TEST_U64_HEX", "0xFA517", 1);
  EXPECT_EQ(sim::env_u64("GAUDI_TEST_U64_HEX", 7), 0xFA517u);
  EXPECT_EQ(sim::env_u64("GAUDI_TEST_U64_UNSET_XYZ", 7), 7u);
  ::setenv("GAUDI_TEST_U64_BAD", "12abc", 1);
  EXPECT_EQ(sim::env_u64("GAUDI_TEST_U64_BAD", 7), 7u);
  ::setenv("GAUDI_TEST_U64_EMPTY", "", 1);
  EXPECT_EQ(sim::env_u64("GAUDI_TEST_U64_EMPTY", 7), 7u);
}

// ---------------------------------------------------------------------------
// FaultInjector determinism
// ---------------------------------------------------------------------------

TEST(FaultInjector, DisabledInjectorNeverFires) {
  const sim::FaultInjector off;
  EXPECT_FALSE(off.enabled());
  for (std::uint64_t s = 0; s < 1000; ++s) {
    for (std::size_t k = 0; k < sim::kFaultKindCount; ++k) {
      EXPECT_FALSE(off.fires(static_cast<sim::FaultKind>(k), s));
    }
  }
  EXPECT_TRUE(sim::fault_schedule(off, 100, 8).empty());
}

TEST(FaultInjector, SameSeedReproducesTheScheduleByteForByte) {
  const sim::FaultProfile profile = sim::FaultProfile::from_mtbf_steps(50.0, 8);
  const sim::FaultInjector a{42, profile};
  const sim::FaultInjector b{42, profile};
  const std::string sa = sim::to_string(sim::fault_schedule(a, 500, 8));
  EXPECT_EQ(sa, sim::to_string(sim::fault_schedule(b, 500, 8)));
  EXPECT_FALSE(sim::fault_schedule(a, 500, 8).empty())
      << "MTBF 50 over 500 steps must fire something";

  const sim::FaultInjector c{43, profile};
  EXPECT_NE(sa, sim::to_string(sim::fault_schedule(c, 500, 8)));
}

TEST(FaultInjector, QueriesArePureFunctionsOfSite) {
  // Stateless oracle: re-querying a site any number of times, in any order,
  // gives the same answer (no generator state to perturb).
  const sim::FaultInjector inj{7, sim::FaultProfile::stress()};
  const std::uint64_t site = sim::FaultInjector::site(13, 5);
  const bool first = inj.fires(sim::FaultKind::kDmaTimeout, site);
  for (int i = 0; i < 10; ++i) {
    (void)inj.fires(sim::FaultKind::kTpcStraggler, i);  // interleaved queries
    EXPECT_EQ(inj.fires(sim::FaultKind::kDmaTimeout, site), first);
  }
}

TEST(FaultInjector, MtbfProfileRatesAreOrderedAndPositive) {
  const sim::FaultProfile p = sim::FaultProfile::from_mtbf_steps(100.0, 8);
  EXPECT_TRUE(p.any_rate_positive());
  EXPECT_GT(p.chip_failure_rate, 0.0);
  // Transient link errors are far more common than chip deaths.
  EXPECT_GT(p.transient_link_rate, p.chip_failure_rate);
  EXPECT_FALSE(sim::FaultProfile::disabled().any_rate_positive());
  EXPECT_EQ(p.rate(sim::FaultKind::kChipFailure), p.chip_failure_rate);
  EXPECT_EQ(p.rate(sim::FaultKind::kTransientLink), p.transient_link_rate);
}

// ---------------------------------------------------------------------------
// Fault-aware scale-out models (scaleout/allreduce, data_parallel, pipeline)
// ---------------------------------------------------------------------------

TEST(FaultFreeScaleout, ResultsArePinnedToThePicosecond) {
  // With a disabled injector (the default) every model is its fault-free
  // arithmetic, whatever the step index.  The healthy-box values are pinned
  // to the picosecond so that no change to a fault path can move them.
  const RoceConfig roce;
  const sim::FaultInjector off;
  struct Ring {
    std::uint32_t chips;
    std::size_t bytes;
    std::int64_t ps;
    std::uint64_t steps;
    std::size_t moved;
  };
  const std::vector<Ring> rings = {
      {1, 1 << 26, 0, 0, 0},
      {2, 0, 0, 0, 0},
      {2, 4096, 4372364, 2, 4096},
      {2, 1 << 26, 6104805818, 2, 67108864},
      {5, 4096, 16596360, 8, 6560},
      {5, 1 << 26, 9777289456, 8, 107374184},
      {8, 4096, 28651630, 14, 7168},
      {8, 1 << 26, 10704410178, 14, 117440512},
  };
  for (const Ring& c : rings) {
    const AllReduceResult r =
        ring_all_reduce_time(roce, c.bytes, c.chips, off, /*step=*/3);
    EXPECT_EQ(r.duration.ps(), c.ps) << c.chips << " chips, " << c.bytes;
    EXPECT_EQ(r.steps, c.steps);
    EXPECT_EQ(r.bytes_moved_per_chip, c.moved);
    EXPECT_EQ(r.surviving_chips, c.chips);
    EXPECT_TRUE(r.lost_chips.empty());
    EXPECT_EQ(r.faults.retries, 0u);
    EXPECT_EQ(r.faults.overhead(), sim::SimTime::zero());
  }

  DataParallelConfig dp;
  dp.chips = 8;
  dp.overlap_comm = true;  // a 50 ms step hides 30 ms of the 42.7 ms sync
  const DataParallelStep d = data_parallel_step(
      dp, sim::SimTime::from_ms(50.0), 1ull << 28, 4096);
  EXPECT_EQ(d.compute.ps(), 50000000000);
  EXPECT_EQ(d.comm.ps(), 42733640726);
  EXPECT_EQ(d.exposed_comm.ps(), 12733640726);
  EXPECT_EQ(d.total.ps(), 62733640726);
  EXPECT_DOUBLE_EQ(d.tokens_per_second, 522335.37892563723);
  EXPECT_DOUBLE_EQ(d.scaling_efficiency, 0.79702053669073059);
  EXPECT_EQ(d.chips_used, dp.chips);
  EXPECT_EQ(d.straggler_stall, sim::SimTime::zero());
  EXPECT_EQ(d.hbm_stall, sim::SimTime::zero());
  dp.overlap_comm = false;
  const DataParallelStep serial = data_parallel_step(
      dp, sim::SimTime::from_ms(250.0), 1ull << 28, 4096);
  EXPECT_EQ(serial.exposed_comm.ps(), 42733640726);
  EXPECT_EQ(serial.total.ps(), 292733640726);
  EXPECT_DOUBLE_EQ(serial.tokens_per_second, 111937.93756922866);
  EXPECT_DOUBLE_EQ(serial.scaling_efficiency, 0.85401868873007702);

  PipelineConfig pp;
  pp.stages = 8;
  pp.microbatches = 16;
  const PipelineStep p =
      pipeline_step(pp, sim::SimTime::from_ms(400.0), 1 << 22, 2048);
  EXPECT_EQ(p.stage_time.ps(), 50000000000);
  EXPECT_EQ(p.boundary_comm.ps(), 383300364);
  EXPECT_EQ(p.slot_time.ps(), 50383300364);
  EXPECT_EQ(p.total.ps(), 1158815908372);
  EXPECT_DOUBLE_EQ(p.bubble_fraction, 0.30434782608695654);
  EXPECT_DOUBLE_EQ(p.utilization, 0.69565217391304346);
  EXPECT_DOUBLE_EQ(p.tokens_per_second, 28277.140280232419);
  EXPECT_DOUBLE_EQ(p.speedup_vs_single_chip, 5.5228789609828937);
  EXPECT_EQ(p.stages_used, pp.stages);
  EXPECT_EQ(p.faults.overhead(), sim::SimTime::zero());
}

TEST(ResilientAllReduce, DisabledInjectorMatchesBaselineExactly) {
  // A seeded injector whose rates are all zero draws nothing at any step:
  // the exchange is the default call's, field by field.
  const RoceConfig roce;
  const sim::FaultInjector off{42, sim::FaultProfile::disabled()};
  for (const std::uint32_t chips : {1u, 2u, 5u, 8u}) {
    for (const std::size_t bytes : {std::size_t{0}, std::size_t{4096},
                                    std::size_t{1} << 26}) {
      const auto base = ring_all_reduce_time(roce, bytes, chips);
      for (const std::uint64_t step : {0u, 3u, 1000u}) {
        const auto r = ring_all_reduce_time(roce, bytes, chips, off, step);
        EXPECT_EQ(r.duration, base.duration) << chips << " chips, " << bytes;
        EXPECT_EQ(r.steps, base.steps);
        EXPECT_EQ(r.bytes_moved_per_chip, base.bytes_moved_per_chip);
        EXPECT_EQ(r.surviving_chips, chips);
        EXPECT_TRUE(r.lost_chips.empty());
        EXPECT_EQ(r.faults.retries, 0u);
        EXPECT_EQ(r.faults.overhead(), sim::SimTime::zero());
      }
    }
  }
}

TEST(ResilientAllReduce, BackoffDelayGrowsExponentially) {
  // A failed fabric attempt costs the ack timeout plus a backoff that starts
  // at base_backoff and doubles per attempt, with no ceiling.
  const RetryPolicy p;
  for (std::uint32_t a = 0; a < 31; ++a) {
    EXPECT_EQ(p.failed_attempt(a) - p.detection_timeout,
              p.base_backoff * (std::int64_t{1} << a))
        << "attempt " << a;
  }
}

TEST(ResilientAllReduce, TransientFaultsRetryWithExponentialBackoff) {
  const RoceConfig cfg;
  sim::FaultProfile profile;  // only transient errors, firing every attempt
  profile.transient_link_rate = 1.0;
  const sim::FaultInjector inj{1, profile};

  const std::uint32_t chips = 4;
  const auto r = ring_all_reduce_time(cfg, 1 << 20, chips, inj, /*step=*/0);
  const auto clean = ring_all_reduce_time(cfg, 1 << 20, chips);
  // Every link burns max_attempts-1 failed attempts before the forced
  // success; links retry in parallel, so one worst-case chain is exposed.
  const std::uint32_t per_link = cfg.retry.max_attempts - 1;
  EXPECT_EQ(r.faults.retries, per_link * chips);
  EXPECT_EQ(r.faults.transient_faults, per_link * chips);
  // Each failed attempt pays the ack timeout plus a doubling backoff.
  sim::SimTime chain = sim::SimTime::zero();
  for (std::uint32_t a = 0; a < per_link; ++a) {
    chain += cfg.retry.failed_attempt(a);
  }
  EXPECT_EQ(chain, sim::SimTime::from_us(3 * 500.0 + 100.0 + 200.0 + 400.0));
  EXPECT_EQ(r.faults.retry_overhead, chain);
  EXPECT_EQ(r.duration, clean.duration + chain);
  EXPECT_EQ(r.surviving_chips, chips);
}

TEST(ResilientAllReduce, DegradedLinkPacesTheWholeExchange) {
  const RoceConfig cfg;
  sim::FaultProfile profile;
  profile.link_degradation_rate = 1.0;  // every link degraded
  profile.degraded_bandwidth_factor = 0.5;
  const sim::FaultInjector inj{1, profile};

  const auto r = ring_all_reduce_time(cfg, 1 << 24, 8, inj, /*step=*/0);
  const auto clean = ring_all_reduce_time(cfg, 1 << 24, 8);
  EXPECT_EQ(r.faults.degraded_links, 8u);
  EXPECT_GT(r.duration, clean.duration);
  EXPECT_EQ(r.duration, clean.duration + r.faults.degradation_overhead);
  // Half bandwidth ~ doubled per-step time (latency is unchanged, so the
  // stretch is slightly above 2x of the bandwidth term alone).
  EXPECT_GE(r.faults.degradation_overhead.ps(),
            static_cast<std::int64_t>(0.9 * clean.duration.ps()));
}

/// Finds a (seed-fixed) step where exactly `want` of `chips` chips fail.
std::uint64_t step_with_losses(const sim::FaultInjector& inj,
                               std::uint32_t chips, std::uint32_t want) {
  for (std::uint64_t step = 0; step < 10000; ++step) {
    if (inj.chips_lost(step, chips).size() == want) return step;
  }
  ADD_FAILURE() << "no step with " << want << " losses in 10000 steps";
  return 0;
}

TEST(ResilientAllReduce, ChipLossReformsTheRingWithExactSurvivorNumerics) {
  const RoceConfig cfg;
  sim::FaultProfile profile;
  profile.chip_failure_rate = 0.15;
  const sim::FaultInjector inj{9, profile};
  const std::uint32_t chips = 6;
  const std::uint64_t step = step_with_losses(inj, chips, 1);

  // Integer-valued shards: any summation order is exact in f32.
  std::vector<Tensor> shards;
  for (std::uint32_t c = 0; c < chips; ++c) {
    shards.push_back(Tensor::full(Shape{{97}}, static_cast<float>(1u << c)));
  }
  auto r = ring_all_reduce(cfg, shards, ReduceOp::kSum, inj, step);

  ASSERT_EQ(r.lost_chips.size(), 1u);
  EXPECT_EQ(r.surviving_chips, chips - 1);
  EXPECT_EQ(r.faults.chips_lost, 1u);
  ASSERT_EQ(shards.size(), chips - 1);
  // P -> P-1: the survivors' reduction is the exact sum of the surviving
  // inputs — the dead chip's contribution is gone, nothing else changed.
  const float expect = static_cast<float>((1u << chips) - 1) -
                       static_cast<float>(1u << r.lost_chips[0]);
  for (const auto& s : shards) {
    for (float v : s.f32()) EXPECT_EQ(v, expect);
  }
  // Re-formation cost is charged once: detection + membership agreement.
  EXPECT_EQ(r.faults.reformation_overhead,
            cfg.retry.detection_timeout + cfg.reformation_latency);
  // The exchange the survivors run is the P-1 ring.
  EXPECT_EQ(r.steps, 2u * (chips - 2));
}

TEST(ResilientAllReduce, MeanAveragesOverSurvivors) {
  const RoceConfig cfg;
  sim::FaultProfile profile;
  profile.chip_failure_rate = 0.15;
  const sim::FaultInjector inj{9, profile};
  const std::uint32_t chips = 4;
  const std::uint64_t step = step_with_losses(inj, chips, 1);

  std::vector<Tensor> shards;
  for (std::uint32_t c = 0; c < chips; ++c) {
    shards.push_back(Tensor::full(Shape{{16}}, static_cast<float>(c + 1)));
  }
  std::vector<float> values{1.0f, 2.0f, 3.0f, 4.0f};
  auto r = ring_all_reduce(cfg, shards, ReduceOp::kMean, inj, step);
  ASSERT_EQ(r.lost_chips.size(), 1u);
  values.erase(values.begin() + r.lost_chips[0]);
  const float expect = (values[0] + values[1] + values[2]) / 3.0f;
  for (const auto& s : shards) {
    for (float v : s.f32()) EXPECT_NEAR(v, expect, 1e-6f);
  }
}

TEST(ResilientAllReduce, AllChipsLostThrowsResourceExhausted) {
  const RoceConfig cfg;
  sim::FaultProfile profile;
  profile.chip_failure_rate = 1.0;
  const sim::FaultInjector inj{1, profile};
  EXPECT_THROW((void)ring_all_reduce_time(cfg, 1 << 20, 8, inj, 0),
               sim::ResourceExhausted);
}

TEST(ResilientAllReduce, RejectsBadShardVectors) {
  const RoceConfig cfg;
  sim::FaultProfile profile;
  profile.chip_failure_rate = 1.0;  // the shard checks come first
  const sim::FaultInjector inj{1, profile};
  std::vector<Tensor> empty;
  EXPECT_THROW(ring_all_reduce(cfg, empty, ReduceOp::kSum, inj, 0),
               sim::InvalidArgument);
  std::vector<Tensor> mismatched{Tensor::zeros(Shape{{2, 3}}),
                                 Tensor::zeros(Shape{{3, 2}})};
  EXPECT_THROW(ring_all_reduce(cfg, mismatched, ReduceOp::kSum, inj, 0),
               sim::InvalidArgument);
}

TEST(ResilientDataParallel, DisabledInjectorMatchesPlainStepExactly) {
  DataParallelConfig dp;
  dp.chips = 8;
  const sim::FaultInjector off{42, sim::FaultProfile::disabled()};
  const auto step = sim::SimTime::from_ms(250.0);
  const std::size_t grad = 1ull << 28;

  for (const bool overlap : {true, false}) {
    dp.overlap_comm = overlap;
    const auto plain = data_parallel_step(dp, step, grad, 4096);
    const auto res = data_parallel_step(dp, step, grad, 4096, off, 7);
    EXPECT_EQ(res.chips_used, dp.chips);
    EXPECT_EQ(res.compute, plain.compute);
    EXPECT_EQ(res.comm, plain.comm);
    EXPECT_EQ(res.exposed_comm, plain.exposed_comm);
    EXPECT_EQ(res.total, plain.total);
    EXPECT_DOUBLE_EQ(res.tokens_per_second, plain.tokens_per_second);
    EXPECT_DOUBLE_EQ(res.scaling_efficiency, plain.scaling_efficiency);
    EXPECT_EQ(res.straggler_stall, sim::SimTime::zero());
    EXPECT_EQ(res.hbm_stall, sim::SimTime::zero());
    EXPECT_EQ(res.faults.stragglers, 0u);
    EXPECT_EQ(res.faults.overhead(), sim::SimTime::zero());
  }
}

TEST(ResilientDataParallel, StragglerAndHbmPressureStretchTheStep) {
  DataParallelConfig dp;
  dp.chips = 8;
  sim::FaultProfile profile;
  profile.tpc_straggler_rate = 1.0;  // every chip straggles
  profile.hbm_pressure_rate = 1.0;
  profile.straggler_slowdown = 2.0;
  const sim::FaultInjector inj{1, profile};
  const auto step = sim::SimTime::from_ms(100.0);

  const auto res = data_parallel_step(dp, step, 1 << 20, 4096, inj, 0);
  EXPECT_EQ(res.faults.stragglers, dp.chips);
  EXPECT_EQ(res.straggler_stall, step);  // 2x slowdown doubles the step
  EXPECT_EQ(res.hbm_stall, profile.hbm_pressure_stall);
  EXPECT_EQ(res.compute, step * 2 + profile.hbm_pressure_stall);
}

TEST(ResilientDataParallel, ChipLossScalesThroughputAndEfficiencyDown) {
  DataParallelConfig dp;
  dp.chips = 8;
  sim::FaultProfile profile;
  profile.chip_failure_rate = 0.1;
  const sim::FaultInjector inj{5, profile};
  const std::uint64_t step_idx = step_with_losses(inj, dp.chips, 1);
  const auto step = sim::SimTime::from_ms(100.0);

  const auto healthy = data_parallel_step(dp, step, 1 << 24, 4096,
                                          sim::FaultInjector{}, step_idx);
  const auto degraded =
      data_parallel_step(dp, step, 1 << 24, 4096, inj, step_idx);
  EXPECT_EQ(degraded.chips_used, dp.chips - 1);
  EXPECT_LT(degraded.tokens_per_second, healthy.tokens_per_second);
  EXPECT_LT(degraded.scaling_efficiency, healthy.scaling_efficiency);
  EXPECT_GT(degraded.faults.reformation_overhead, sim::SimTime::zero());
}

TEST(ResilientPipeline, DisabledInjectorMatchesPlainStepExactly) {
  PipelineConfig pp;
  pp.stages = 8;
  pp.microbatches = 16;
  const sim::FaultInjector off{42, sim::FaultProfile::disabled()};
  const auto model_step = sim::SimTime::from_ms(400.0);

  const auto plain = pipeline_step(pp, model_step, 1 << 22, 2048);
  const auto res = pipeline_step(pp, model_step, 1 << 22, 2048, off, 7);
  EXPECT_EQ(res.stages_used, pp.stages);
  EXPECT_EQ(res.stage_time, plain.stage_time);
  EXPECT_EQ(res.boundary_comm, plain.boundary_comm);
  EXPECT_EQ(res.slot_time, plain.slot_time);
  EXPECT_EQ(res.total, plain.total);
  EXPECT_DOUBLE_EQ(res.bubble_fraction, plain.bubble_fraction);
  EXPECT_DOUBLE_EQ(res.tokens_per_second, plain.tokens_per_second);
  EXPECT_EQ(res.faults.overhead(), sim::SimTime::zero());
}

TEST(ResilientPipeline, StageLossRepartitionsOverSurvivors) {
  PipelineConfig pp;
  pp.stages = 8;
  pp.microbatches = 16;
  sim::FaultProfile profile;
  profile.chip_failure_rate = 0.1;
  const sim::FaultInjector inj{5, profile};
  const std::uint64_t step_idx = step_with_losses(inj, pp.stages, 1);

  const auto res = pipeline_step(pp, sim::SimTime::from_ms(400.0), 1 << 22,
                                 2048, inj, step_idx);
  EXPECT_EQ(res.stages_used, pp.stages - 1);
  EXPECT_EQ(res.faults.chips_lost, 1u);
  // Fewer stages -> each stage holds more layers -> longer stage time.
  const auto plain = pipeline_step(pp, sim::SimTime::from_ms(400.0), 1 << 22,
                                   2048);
  EXPECT_GT(res.stage_time, plain.stage_time);
  EXPECT_GT(res.faults.reformation_overhead, sim::SimTime::zero());
}

TEST(ResilientPipeline, BoundaryRetriesFollowThePipelinesOwnLinkPolicy) {
  PipelineConfig pp;
  pp.stages = 4;
  pp.microbatches = 8;
  sim::FaultProfile profile;
  profile.transient_link_rate = 1.0;
  const sim::FaultInjector inj{1, profile};
  const auto model_step = sim::SimTime::from_ms(40.0);
  const auto clean = pipeline_step(pp, model_step, 1 << 20, 512);

  // Boundary transfers run one after another, so every chain is exposed.
  const auto res = pipeline_step(pp, model_step, 1 << 20, 512, inj, 0);
  const RetryPolicy& retry = pp.roce.retry;
  const sim::SimTime chain = retry.failed_attempt(0) +
                             retry.failed_attempt(1) + retry.failed_attempt(2);
  EXPECT_EQ(res.faults.retries, 3u * (pp.stages - 1));
  EXPECT_EQ(res.total, clean.total + chain * (pp.stages - 1));

  // A single-attempt policy on the pipeline's links never retries.
  pp.roce.retry.max_attempts = 1;
  const auto once = pipeline_step(pp, model_step, 1 << 20, 512, inj, 0);
  EXPECT_EQ(once.faults.retries, 0u);
  EXPECT_EQ(once.total, clean.total);
}

// max_attempts == 0 has one meaning on every fabric transfer: the policy is
// invalid, since each transfer needs the attempt that is forced through.
TEST(RetryPolicyCheck, ZeroAttemptsThrowsTheSameErrorOnEveryTransfer) {
  RoceConfig roce;
  roce.retry.max_attempts = 0;
  const auto error_of = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const sim::InvalidArgument& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string ring =
      error_of([&] { (void)ring_all_reduce_time(roce, 1 << 20, 2); });
  PipelineConfig pp;
  pp.roce = roce;
  pp.stages = 2;
  const std::string pipeline = error_of(
      [&] { (void)pipeline_step(pp, sim::SimTime::from_ms(40.0), 1 << 20, 512); });
  serve::MigrationConfig migration;
  migration.roce = roce;
  const std::string kv = error_of([&] {
    (void)serve::plan_kv_transfer(migration, sim::FaultInjector{}, 0, 64, 16,
                                  1024);
  });
  EXPECT_NE(ring.find("retry policy needs >= 1 attempt"), std::string::npos)
      << ring;
  EXPECT_EQ(pipeline, ring);
  EXPECT_EQ(kv, ring);
}

// Stragglers are drawn over the chips that survived the step.  At step 628
// of this seed only chip 0 dies and only chip 0's straggler site fires, so
// no survivor straggles and neither step stretches.
TEST(ResilientScaleOut, StragglersAreDrawnOverTheSurvivors) {
  sim::FaultProfile profile;
  profile.chip_failure_rate = 0.2;
  profile.tpc_straggler_rate = 0.2;
  const sim::FaultInjector inj{3, profile};
  const std::uint64_t step_idx = 628;
  ASSERT_EQ(inj.chips_lost(step_idx, 8), std::vector<std::uint32_t>{0});
  ASSERT_TRUE(inj.fires(sim::FaultKind::kTpcStraggler,
                        sim::FaultInjector::site(step_idx, 0)));

  DataParallelConfig dp;
  dp.chips = 8;
  const auto d = data_parallel_step(dp, sim::SimTime::from_ms(100.0), 1 << 20,
                                    4096, inj, step_idx);
  EXPECT_EQ(d.chips_used, 7u);
  EXPECT_EQ(d.faults.stragglers, 0u);
  EXPECT_EQ(d.straggler_stall, sim::SimTime::zero());

  PipelineConfig pp;
  pp.stages = 8;
  const auto model_step = sim::SimTime::from_ms(400.0);
  const auto p = pipeline_step(pp, model_step, 1 << 20, 2048, inj, step_idx);
  EXPECT_EQ(p.stages_used, 7u);
  EXPECT_EQ(p.faults.stragglers, 0u);
  EXPECT_EQ(p.stage_time, sim::SimTime::from_seconds(model_step.seconds() / 7));
}

// ---------------------------------------------------------------------------
// Checkpoint / rollback recovery
// ---------------------------------------------------------------------------

TEST(Checkpoint, SaveTimeIsFixedOverheadPlusTransfer) {
  CheckpointConfig cfg;
  cfg.state_bytes = 2ull << 30;
  cfg.storage_bandwidth_bytes_per_s = 1.0e9;
  cfg.fixed_overhead = sim::SimTime::from_ms(10.0);
  const auto save = checkpoint_save_time(cfg);
  EXPECT_NEAR(save.seconds(), 0.010 + 2.147483648, 1e-6);
  EXPECT_EQ(checkpoint_restore_time(cfg), save);
  cfg.storage_bandwidth_bytes_per_s = 0.0;
  EXPECT_THROW((void)checkpoint_save_time(cfg), sim::InvalidArgument);
}

TEST(Checkpoint, YoungDalyMatchesTheClosedForm) {
  // step = 1 s, save = 2 s, MTBF = 100 steps = 100 s:
  // W_opt = sqrt(2 * 2 * 100) = 20 s = 20 steps.
  const auto interval = young_daly_interval_steps(
      sim::SimTime::from_seconds(1.0), sim::SimTime::from_seconds(2.0), 100.0);
  EXPECT_EQ(interval, 20u);
  // Tiny save cost still yields at least one step between snapshots.
  EXPECT_GE(young_daly_interval_steps(sim::SimTime::from_seconds(1.0),
                                      sim::SimTime::from_us(1.0), 2.0),
            1u);
}

TEST(TrainingRun, FaultFreeAccountingIsExact) {
  TrainingRunConfig cfg;
  cfg.steps = 100;
  cfg.step_time = sim::SimTime::from_ms(100.0);
  cfg.policy = RecoveryPolicy::kFixedInterval;
  cfg.checkpoint_interval = 10;
  const sim::FaultInjector off;

  const auto rep = resilient_training_run(cfg, off);
  EXPECT_TRUE(rep.finished);
  EXPECT_EQ(rep.useful_steps, cfg.steps);
  EXPECT_EQ(rep.failures, 0u);
  EXPECT_EQ(rep.recomputed_steps, 0u);
  // 100 steps checkpoint at 10,20,...,90 — the finish-line snapshot is
  // skipped.
  EXPECT_EQ(rep.checkpoints, 9u);
  const auto save = checkpoint_save_time(cfg.checkpoint);
  EXPECT_EQ(rep.total_time, cfg.step_time * 100 + save * 9);
  EXPECT_LT(rep.goodput, 1.0);

  cfg.policy = RecoveryPolicy::kNone;
  const auto none = resilient_training_run(cfg, off);
  EXPECT_EQ(none.checkpoints, 0u);
  EXPECT_EQ(none.total_time, cfg.step_time * 100);
  EXPECT_DOUBLE_EQ(none.goodput, 1.0);
}

TEST(TrainingRun, SameSeedReproducesTheReportByteForByte) {
  TrainingRunConfig cfg;
  cfg.steps = 400;
  cfg.policy = RecoveryPolicy::kYoungDaly;
  cfg.mtbf_steps = 50.0;
  cfg.checkpoint.state_bytes = 1ull << 30;
  const sim::FaultProfile profile =
      sim::FaultProfile::from_mtbf_steps(cfg.mtbf_steps, cfg.chips);

  const auto a = resilient_training_run(cfg, sim::FaultInjector{11, profile});
  const auto b = resilient_training_run(cfg, sim::FaultInjector{11, profile});
  EXPECT_EQ(to_string(a), to_string(b));
  EXPECT_GT(a.failures, 0u) << "MTBF 50 over 400 steps must fail sometimes";

  const auto c = resilient_training_run(cfg, sim::FaultInjector{12, profile});
  EXPECT_NE(to_string(a), to_string(c));
}

TEST(TrainingRun, RollbackLossIsBoundedByTheCheckpointInterval) {
  TrainingRunConfig cfg;
  cfg.steps = 600;
  cfg.policy = RecoveryPolicy::kFixedInterval;
  cfg.checkpoint_interval = 25;
  cfg.mtbf_steps = 60.0;
  cfg.checkpoint.state_bytes = 1ull << 30;
  const sim::FaultInjector inj{
      3, sim::FaultProfile::from_mtbf_steps(cfg.mtbf_steps, cfg.chips)};

  const auto rep = resilient_training_run(cfg, inj);
  EXPECT_TRUE(rep.finished);
  EXPECT_GT(rep.failures, 0u);
  // Each failure rolls back at most one interval's worth of work.
  EXPECT_LE(rep.recomputed_steps, rep.failures * cfg.checkpoint_interval);
  EXPECT_EQ(rep.restores, rep.failures);
  EXPECT_GT(rep.total_time, cfg.step_time * static_cast<std::int64_t>(cfg.steps));
  EXPECT_GT(rep.goodput, 0.0);
  EXPECT_LT(rep.goodput, 1.0);
}

TEST(TrainingRun, CheckpointingBeatsRestartFromZeroUnderShortMtbf) {
  TrainingRunConfig cfg;
  cfg.steps = 500;
  cfg.mtbf_steps = 25.0;
  cfg.checkpoint.state_bytes = 1ull << 30;
  const sim::FaultInjector inj{
      7, sim::FaultProfile::from_mtbf_steps(cfg.mtbf_steps, cfg.chips)};

  cfg.policy = RecoveryPolicy::kNone;
  const auto none = resilient_training_run(cfg, inj);
  cfg.policy = RecoveryPolicy::kYoungDaly;
  const auto yd = resilient_training_run(cfg, inj);

  // Restart-from-zero cannot string together 500 clean steps at MTBF 25; the
  // run gives up at the attempt budget and reports the truncation honestly.
  EXPECT_FALSE(none.finished);
  EXPECT_LT(none.useful_steps, cfg.steps);
  EXPECT_TRUE(yd.finished);
  EXPECT_GT(yd.goodput, none.goodput);
}

TEST(TrainingRun, MeasuredOptimalIntervalIsWithinTwoXOfYoungDaly) {
  // The acceptance criterion from the bench, shrunk to test scale: sweep
  // fixed intervals at one MTBF and compare the argmax against the closed
  // form.
  TrainingRunConfig cfg;
  cfg.steps = 1000;
  cfg.step_time = sim::SimTime::from_ms(300.0);
  cfg.mtbf_steps = 100.0;
  cfg.policy = RecoveryPolicy::kFixedInterval;
  cfg.checkpoint.state_bytes = 1ull << 30;
  cfg.checkpoint.storage_bandwidth_bytes_per_s = 2.0e9;
  const sim::FaultInjector inj{
      0xFA517, sim::FaultProfile::from_mtbf_steps(cfg.mtbf_steps, cfg.chips)};
  const auto save = checkpoint_save_time(cfg.checkpoint);
  const std::uint64_t predicted =
      young_daly_interval_steps(cfg.step_time, save, cfg.mtbf_steps);

  std::uint64_t best_interval = 0;
  double best_goodput = -1.0;
  for (const std::uint64_t interval : {2u, 5u, 10u, 20u, 40u, 80u, 160u}) {
    cfg.checkpoint_interval = interval;
    const auto rep = resilient_training_run(cfg, inj);
    if (rep.goodput > best_goodput) {
      best_goodput = rep.goodput;
      best_interval = interval;
    }
  }
  ASSERT_GT(predicted, 0u);
  const double ratio = best_interval >= predicted
                           ? static_cast<double>(best_interval) /
                                 static_cast<double>(predicted)
                           : static_cast<double>(predicted) /
                                 static_cast<double>(best_interval);
  EXPECT_LE(ratio, 2.0) << "measured " << best_interval << " vs Young/Daly "
                        << predicted;
}

// ---------------------------------------------------------------------------
// Scheduler integration: zero-overhead default and fault-trace validity
// ---------------------------------------------------------------------------

graph::ProfileResult run_graph(const graph::Graph& g,
                               const sim::FaultInjector* faults) {
  graph::Runtime rt(sim::ChipConfig::hls1());
  graph::RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.faults = faults;
  return rt.run(g, {}, opts);
}

TEST(FaultScheduling, DisabledInjectorIsBitIdenticalToTheNullPath) {
  // The zero-overhead guarantee: with faults absent (nullptr) or present but
  // disabled, the scheduled trace is byte-identical — JSON and all.
  const sim::FaultInjector off;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const graph::RandomDag dag = graph::random_dag(seed);
    const auto plain = run_graph(dag.graph, nullptr);
    const auto gated = run_graph(dag.graph, &off);
    EXPECT_EQ(plain.trace.to_chrome_json(), gated.trace.to_chrome_json())
        << "seed " << seed;
  }
}

TEST(FaultScheduling, StressFaultsProduceValidStallAndRetryTraces) {
  const sim::FaultInjector inj{21, sim::FaultProfile::stress()};
  int stalls = 0;
  int retries = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const graph::RandomDag dag = graph::random_dag(seed);
    const auto res = run_graph(dag.graph, nullptr);
    for (const graph::SchedulePolicy policy :
         {graph::SchedulePolicy::kBarrier, graph::SchedulePolicy::kOverlap}) {
      const graph::Trace trace = graph::schedule(
          dag.graph, res.node_execs, sim::ChipConfig::hls1(), policy, &inj);
      ASSERT_EQ(graph::TraceValidator::format(graph::TraceValidator::validate(
                    dag.graph, res.node_execs, trace, policy,
                    sim::ChipConfig::hls1())),
                "")
          << "seed " << seed << " policy " << schedule_policy_name(policy);
      for (const auto& e : trace.events()) {
        stalls += e.kind == graph::TraceEventKind::kStall;
        retries += e.retry > 0;
      }
    }
  }
  // The corpus must actually exercise both fault paths.
  EXPECT_GT(stalls, 0);
  EXPECT_GT(retries, 0);
}

TEST(FaultScheduling, SameFaultSeedSameTrace) {
  const graph::RandomDag dag = graph::random_dag(17);
  const auto res = run_graph(dag.graph, nullptr);
  const sim::FaultInjector a{33, sim::FaultProfile::stress()};
  const sim::FaultInjector b{33, sim::FaultProfile::stress()};
  const graph::Trace ta =
      graph::schedule(dag.graph, res.node_execs, sim::ChipConfig::hls1(),
                      graph::SchedulePolicy::kOverlap, &a);
  const graph::Trace tb =
      graph::schedule(dag.graph, res.node_execs, sim::ChipConfig::hls1(),
                      graph::SchedulePolicy::kOverlap, &b);
  EXPECT_EQ(ta.to_chrome_json(), tb.to_chrome_json());
}

}  // namespace
}  // namespace gaudi::scaleout
