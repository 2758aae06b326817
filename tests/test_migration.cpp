// Live KV migration primitives (serve/migration.*): transfer planning over
// the RoCE cost model with counter-keyed link faults, and the sliding-window
// replica health score.
//
// The contracts: a plan is a pure function of (config, seed, transfer_seq,
// payload) — re-planning returns identical bytes; a disabled injector yields
// the clean chunked p2p time exactly; injected link faults only ever ADD
// time (retry backoff, degraded pacing), never lose payload ("transient
// means transient"); and the health verdict is a pure function of (recorded
// events, now) with no hidden decay state.
#include <gtest/gtest.h>

#include <cstdint>

#include "scaleout/roce.hpp"
#include "serve/migration.hpp"
#include "sim/fault.hpp"
#include "sim/time.hpp"

namespace gaudi {
namespace {

using sim::SimTime;

serve::MigrationConfig mig_config(std::int64_t chunk_blocks = 4) {
  serve::MigrationConfig cfg;
  cfg.enabled = true;
  cfg.chunk_blocks = chunk_blocks;
  return cfg;
}

sim::FaultProfile link_dropper(double transient, double degradation = 0.0) {
  sim::FaultProfile p;
  p.transient_link_rate = transient;
  p.link_degradation_rate = degradation;
  return p;
}

TEST(MigrationPlan, CleanLinkMatchesChunkedP2pTimeExactly) {
  const serve::MigrationConfig cfg = mig_config(/*chunk_blocks=*/2);
  const sim::FaultInjector no_faults{};  // disabled: never fires
  // 10 rows in 4-token blocks -> 3 blocks -> 2 chunks (2 + 1 blocks).
  const serve::TransferPlan plan =
      serve::plan_kv_transfer(cfg, no_faults, /*transfer_seq=*/0, /*rows=*/10,
                              /*block_tokens=*/4, /*bytes_per_token=*/256);
  EXPECT_EQ(plan.blocks, 3);
  EXPECT_EQ(plan.chunks, 2);
  EXPECT_EQ(plan.link_retries, 0);
  EXPECT_EQ(plan.degraded_chunks, 0);
  // Whole paged blocks ride the wire: 2 blocks * 4 tokens, then 1 block.
  const SimTime expected = scaleout::p2p_time(cfg.roce, 2 * 4 * 256) +
                           scaleout::p2p_time(cfg.roce, 1 * 4 * 256);
  EXPECT_EQ(plan.duration, expected);
}

TEST(MigrationPlan, EmptyPayloadIsFree) {
  const serve::MigrationConfig cfg = mig_config();
  const sim::FaultInjector no_faults{};
  const serve::TransferPlan plan =
      serve::plan_kv_transfer(cfg, no_faults, 0, /*rows=*/0, 4, 256);
  EXPECT_EQ(plan.duration, SimTime::zero());
  EXPECT_EQ(plan.blocks, 0);
  EXPECT_EQ(plan.chunks, 0);
}

TEST(MigrationPlan, IsAPureFunctionOfItsInputs) {
  const serve::MigrationConfig cfg = mig_config();
  const sim::FaultInjector faults{0x5EED, link_dropper(0.3, 0.2)};
  const serve::TransferPlan a =
      serve::plan_kv_transfer(cfg, faults, /*transfer_seq=*/7, 64, 4, 512);
  const serve::TransferPlan b =
      serve::plan_kv_transfer(cfg, faults, /*transfer_seq=*/7, 64, 4, 512);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.link_retries, b.link_retries);
  EXPECT_EQ(a.degraded_chunks, b.degraded_chunks);
  // A different transfer sequence draws an independent fault schedule.
  const serve::TransferPlan c =
      serve::plan_kv_transfer(cfg, faults, /*transfer_seq=*/8, 64, 4, 512);
  EXPECT_EQ(c.blocks, a.blocks);  // payload identical either way
}

TEST(MigrationPlan, LinkFaultsAddTimeButNeverLosePayload) {
  const serve::MigrationConfig cfg = mig_config(/*chunk_blocks=*/1);
  const sim::FaultInjector no_faults{};
  const sim::FaultInjector faulty{0x5EED, link_dropper(1.0, 1.0)};
  const serve::TransferPlan clean =
      serve::plan_kv_transfer(cfg, no_faults, 3, 32, 4, 512);
  const serve::TransferPlan stormy =
      serve::plan_kv_transfer(cfg, faulty, 3, 32, 4, 512);
  // Certain transient drops: every chunk retries max_attempts - 1 times and
  // the last attempt is forced through; a degraded link paces every chunk.
  EXPECT_EQ(stormy.blocks, clean.blocks);
  EXPECT_EQ(stormy.chunks, clean.chunks);
  EXPECT_EQ(stormy.link_retries,
            clean.chunks *
                static_cast<std::int64_t>(cfg.roce.retry.max_attempts - 1));
  EXPECT_EQ(stormy.degraded_chunks, stormy.chunks);
  EXPECT_GT(stormy.duration, clean.duration);
}

TEST(MigrationPlan, TailBlockStreamsAsAWholeBlock) {
  // 5 rows in 4-token blocks is 2 blocks on the wire — the partially filled
  // tail block streams whole, exactly like the paged allocator stores it.
  const serve::MigrationConfig cfg = mig_config(/*chunk_blocks=*/8);
  const sim::FaultInjector no_faults{};
  const serve::TransferPlan plan =
      serve::plan_kv_transfer(cfg, no_faults, 0, /*rows=*/5, 4, 100);
  EXPECT_EQ(plan.blocks, 2);
  EXPECT_EQ(plan.chunks, 1);
  EXPECT_EQ(plan.duration, scaleout::p2p_time(cfg.roce, 2 * 4 * 100));
}

TEST(HealthTracker, DegradesAtThresholdAndRecoversByDecay) {
  serve::HealthTracker h{SimTime::from_ms(10.0), /*degraded_after=*/3};
  const SimTime t0 = SimTime::from_ms(100.0);
  EXPECT_FALSE(h.degraded(t0));
  h.record(t0);
  h.record(t0 + SimTime::from_ms(1.0));
  EXPECT_EQ(h.score(t0 + SimTime::from_ms(1.0)), 2);
  EXPECT_FALSE(h.degraded(t0 + SimTime::from_ms(1.0)));
  h.record(t0 + SimTime::from_ms(2.0));
  EXPECT_TRUE(h.degraded(t0 + SimTime::from_ms(2.0)));
  // The first event ages out 10 ms after it was recorded: score drops to 2
  // and the verdict flips back with no explicit reset.
  EXPECT_TRUE(h.degraded(t0 + SimTime::from_ms(9.9)));
  EXPECT_FALSE(h.degraded(t0 + SimTime::from_ms(10.0)));
  EXPECT_EQ(h.score(t0 + SimTime::from_ms(11.5)), 1);
}

TEST(HealthTracker, NextDecayReportsTheEarliestAgeOut) {
  serve::HealthTracker h{SimTime::from_ms(10.0), 2};
  const SimTime t0 = SimTime::from_ms(50.0);
  EXPECT_FALSE(h.next_decay(t0).has_value());
  h.record(t0);
  h.record(t0 + SimTime::from_ms(4.0));
  const auto decay = h.next_decay(t0 + SimTime::from_ms(5.0));
  ASSERT_TRUE(decay.has_value());
  EXPECT_EQ(*decay, t0 + SimTime::from_ms(10.0));
  // Past the last age-out there is nothing left to wait for.
  EXPECT_FALSE(h.next_decay(t0 + SimTime::from_ms(20.0)).has_value());
}

TEST(HealthTracker, DefaultConstructedNeverDegrades) {
  serve::HealthTracker h;
  h.record(SimTime::from_ms(1.0));
  EXPECT_FALSE(h.degraded(SimTime::from_ms(1.0)));
}

}  // namespace
}  // namespace gaudi
