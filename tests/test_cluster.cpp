// Multi-replica serving cluster: failure detection, failover with KV
// re-prefill, hedged requests, and circuit breaking.
//
// The contracts under test mirror the single-replica scheduler's: every
// offered request ends in exactly one typed outcome, same seed means
// byte-identical reports, and a cluster whose injector is disabled is
// byte-identical to a fault-free configuration.  On top of those, the
// fleet-level claims: N >= 2 replicas beat one replica's availability under
// the same per-replica fault stream, hedges race and cancel losers, and a
// flapping replica's breaker opens.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "graph/runtime.hpp"
#include "nn/decode.hpp"
#include "serve/cluster.hpp"
#include "serve/workload.hpp"
#include "sim/error.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"

namespace gaudi {
namespace {

serve::StreamConfig tiny_stream(std::int64_t n = 12, double rate = 200.0) {
  serve::StreamConfig cfg;
  cfg.arrival_rate_rps = rate;
  cfg.num_requests = n;
  cfg.prompt = {2, 4};
  cfg.output = {2, 3};
  cfg.seed = 0xBEEF;
  return cfg;
}

serve::ClusterConfig tiny_cluster(std::int64_t replicas = 2) {
  serve::ClusterConfig cfg;
  cfg.replica.model = nn::DecodeConfig::tiny();
  cfg.replica.max_batch = 2;
  cfg.replica.prefill_chunk = 4;
  cfg.replica.ctx_bucket = 4;
  cfg.replica.block_tokens = 4;
  cfg.replica.kv_budget_bytes = 4096;  // 8 blocks of 4 tokens
  cfg.replica.timing_only = true;
  cfg.replicas = replicas;
  return cfg;
}

sim::FaultProfile chip_killer_profile(double rate) {
  sim::FaultProfile p;
  p.chip_failure_rate = rate;
  return p;
}

/// Sums the per-outcome counters; every offered request must land in
/// exactly one of them.
std::int64_t outcome_total(const serve::ServeSummary& s) {
  return s.completed + s.rejected + s.dropped + s.shed + s.timed_out +
         s.failed;
}

/// Output length is an exact function of the request: every completed
/// request must report exactly its `output_len` tokens.  A second copy of
/// a request feeding the shared metrics sink would overshoot it.
void expect_exact_outputs(const std::vector<serve::Request>& stream,
                          const std::vector<serve::RequestMetrics>& records) {
  std::map<std::int64_t, std::int64_t> output_len;
  for (const serve::Request& q : stream) output_len[q.id] = q.output_len;
  for (const serve::RequestMetrics& m : records) {
    if (m.outcome != serve::RequestOutcome::kCompleted) continue;
    EXPECT_EQ(m.tokens_out, output_len.at(m.id)) << "request " << m.id;
  }
}

TEST(Cluster, SameSeedRunsAreByteIdentical) {
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream());
  serve::ClusterConfig cfg = tiny_cluster(3);
  cfg.fault_profile = chip_killer_profile(0.1);
  cfg.hedge_budget = sim::SimTime::from_ms(2.0);
  serve::ClusterRouter a(rt, cfg);
  serve::ClusterRouter b(rt, cfg);
  const std::string ra = a.run(stream).to_report();
  const std::string rb = b.run(stream).to_report();
  EXPECT_EQ(ra, rb);
  EXPECT_NE(ra.find("cluster:"), std::string::npos);
}

TEST(Cluster, DisabledInjectorMatchesFaultFreeConfig) {
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream());
  // Fault-free config vs a config whose injector exists but is disabled
  // (all rates zero) under a different seed: the seed must be unreachable.
  serve::ClusterConfig fault_free = tiny_cluster(3);
  serve::ClusterConfig disabled = tiny_cluster(3);
  disabled.fault_profile = sim::FaultProfile::disabled();
  disabled.fault_seed = 0xDEAD;
  serve::ClusterRouter a(rt, fault_free);
  serve::ClusterRouter b(rt, disabled);
  const serve::ClusterReport ra = a.run(stream);
  const serve::ClusterReport rb = b.run(stream);
  EXPECT_FALSE(ra.faults_enabled);
  EXPECT_FALSE(rb.faults_enabled);
  EXPECT_EQ(ra.to_report(), rb.to_report());
  EXPECT_EQ(ra.chip_failures, 0);
  EXPECT_EQ(ra.summary.completed, ra.summary.offered);
}

TEST(Cluster, FailoverCompletesOrTypesEveryRequest) {
  // Aggressive chip loss at N=2 with a validating allocator: requests fail
  // over with a full re-prefill and every one of them ends in exactly one
  // typed outcome.
  ::setenv("GAUDI_VALIDATE", "1", 1);
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream(16));
  serve::ClusterConfig cfg = tiny_cluster(2);
  cfg.fault_profile = chip_killer_profile(0.25);
  cfg.replica.retry_max = 4;
  serve::ClusterRouter router(rt, cfg);
  const serve::ClusterReport r = router.run(stream);
  ::unsetenv("GAUDI_VALIDATE");

  EXPECT_EQ(r.summary.offered, 16);
  EXPECT_EQ(outcome_total(r.summary), r.summary.offered);
  EXPECT_GT(r.chip_failures, 0);
  EXPECT_GT(r.failovers, 0);
  // Failed-over work re-prefills from scratch: the thrown-away rows are
  // accounted as wasted.
  EXPECT_GT(r.summary.wasted_tokens, 0);
  for (const serve::RequestMetrics& m : r.requests) {
    if (m.outcome == serve::RequestOutcome::kCompleted) {
      EXPECT_GT(m.tokens_out, 0) << "request " << m.id;
    }
  }
}

TEST(Cluster, RepeatedDeathBeforeDetectionFailsOverBothDeaths) {
  // Regression: with chip_restart (50 ms) inside the suspicion timeout,
  // detection waits for the restarted chip's first heartbeat tick, so a
  // replica can rejoin and die again before its first death is detected.
  // The second death used to overwrite the first's drained work and
  // detection time, and the router stalled with that work unresolved
  // (`serve-cluster --requests 200 --rate 40 --faults --mtbf 20
  // --suspicion-ms 60 --heartbeat-ms 20 --fault-seed 4`).
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::StreamConfig scfg;
  scfg.num_requests = 200;
  scfg.arrival_rate_rps = 40.0;
  const auto stream = serve::poisson_stream(scfg);
  serve::ClusterConfig cfg;
  cfg.replica.timing_only = true;
  cfg.replicas = 2;
  cfg.fault_profile = sim::FaultProfile::from_mtbf_steps(20, 1);
  cfg.fault_seed = 4;
  cfg.suspicion_timeout = sim::SimTime::from_ms(60.0);
  cfg.heartbeat_interval = sim::SimTime::from_ms(20.0);
  serve::ClusterRouter router(rt, cfg);
  const serve::ClusterReport r = router.run(stream);
  EXPECT_EQ(r.summary.offered, 200);
  EXPECT_EQ(outcome_total(r.summary), r.summary.offered);
  expect_exact_outputs(stream, r.requests);
}

TEST(Cluster, ReplicasBeatSingleReplicaAvailabilityUnderFaults) {
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream(16));
  auto availability = [&](std::int64_t replicas) {
    serve::ClusterConfig cfg = tiny_cluster(replicas);
    cfg.fault_profile = chip_killer_profile(0.3);
    cfg.replica.retry_max = 1;
    serve::ClusterRouter router(rt, cfg);
    const serve::ClusterReport r = router.run(stream);
    return r.summary.availability;
  };
  const double one = availability(1);
  const double three = availability(3);
  EXPECT_LT(one, 1.0);
  EXPECT_GT(three, one);
}

TEST(Cluster, HedgeRacesAndCancelsTheLoser) {
  // One batch slot per replica and a burst of simultaneous arrivals: the
  // primary queues behind its replica's backlog, the duplicate lands on a
  // less-loaded replica and wins the race; the loser's rows are wasted.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream(12, 2000.0));
  serve::ClusterConfig cfg = tiny_cluster(2);
  cfg.replica.max_batch = 1;
  cfg.hedge_budget = sim::SimTime::from_ms(1.0);
  serve::ClusterRouter router(rt, cfg);
  const serve::ClusterReport r = router.run(stream);
  EXPECT_TRUE(r.hedging_enabled);
  EXPECT_GT(r.hedges_launched, 0);
  EXPECT_EQ(outcome_total(r.summary), r.summary.offered);
  EXPECT_EQ(r.summary.completed, r.summary.offered);
  // The duplicate's report line renders only when hedging is on.
  EXPECT_NE(r.to_report().find("hedges:"), std::string::npos);
}

TEST(Cluster, HedgeWinnerFailoverChainResolvesEveryRequest) {
  // Regression: a hedge wins, the winning replica dies (the request fails
  // over and re-dispatches under its original id), then the re-dispatched
  // side's replica dies too.  The resume must read as the last live
  // carrier — not as the dead winner's leftover twin — or the track leaks
  // and the router stalls with no future event.  Hammer the interaction
  // across fault seeds; every request must still end in one typed outcome.
  ::setenv("GAUDI_VALIDATE", "1", 1);
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream(16, 400.0));
  for (std::uint64_t fault_seed = 1; fault_seed <= 8; ++fault_seed) {
    serve::ClusterConfig cfg = tiny_cluster(3);
    cfg.fault_profile = chip_killer_profile(0.35);
    cfg.fault_seed = fault_seed;
    cfg.hedge_budget = sim::SimTime::from_ms(1.0);
    cfg.replica.retry_max = 4;
    cfg.breaker_min_samples = 2;
    cfg.breaker_window = 4;
    serve::ClusterRouter router(rt, cfg);
    const serve::ClusterReport r = router.run(stream);
    EXPECT_EQ(outcome_total(r.summary), r.summary.offered)
        << "fault_seed " << fault_seed;
  }
  ::unsetenv("GAUDI_VALIDATE");
}

TEST(Cluster, BreakerOpensOnFlappingReplicaAndRunStillEnds) {
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream(16));
  serve::ClusterConfig cfg = tiny_cluster(2);
  cfg.fault_profile = chip_killer_profile(0.5);
  cfg.replica.retry_max = 6;
  cfg.breaker_min_samples = 2;
  cfg.breaker_window = 4;
  serve::ClusterRouter router(rt, cfg);
  const serve::ClusterReport r = router.run(stream);
  EXPECT_GT(r.breaker_opens, 0);
  EXPECT_EQ(outcome_total(r.summary), r.summary.offered);
  std::int64_t per_replica_opens = 0;
  for (const serve::ReplicaStats& s : r.per_replica) {
    per_replica_opens += s.breaker_opens;
  }
  EXPECT_EQ(per_replica_opens, r.breaker_opens);
}

TEST(Cluster, LoadBalancePoliciesSpreadAndParse) {
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream(12));
  for (const serve::LoadBalancePolicy policy :
       {serve::LoadBalancePolicy::kRoundRobin,
        serve::LoadBalancePolicy::kJoinShortestQueue,
        serve::LoadBalancePolicy::kLeastKvLoad}) {
    serve::ClusterConfig cfg = tiny_cluster(3);
    cfg.policy = policy;
    serve::ClusterRouter router(rt, cfg);
    const serve::ClusterReport r = router.run(stream);
    EXPECT_EQ(r.summary.completed, 12) << serve::load_balance_policy_name(policy);
    // Fault-free with every policy: nobody starves, at least two replicas
    // see work (12 requests over 3 replicas).
    std::int64_t busy_replicas = 0;
    for (const serve::ReplicaStats& s : r.per_replica) {
      busy_replicas += s.dispatched > 0 ? 1 : 0;
    }
    EXPECT_GE(busy_replicas, 2) << serve::load_balance_policy_name(policy);
    EXPECT_EQ(serve::parse_load_balance_policy(
                  serve::load_balance_policy_name(policy)),
              policy);
  }
  EXPECT_THROW((void)serve::parse_load_balance_policy("fastest"),
               sim::InvalidArgument);
}

TEST(Cluster, RejectsBadConfigs) {
  const graph::Runtime rt(sim::ChipConfig::hls1());
  {
    serve::ClusterConfig cfg = tiny_cluster(0);
    EXPECT_THROW(serve::ClusterRouter(rt, cfg), sim::InvalidArgument);
  }
  {
    serve::ClusterConfig cfg = tiny_cluster();
    cfg.suspicion_timeout = sim::SimTime::zero();
    EXPECT_THROW(serve::ClusterRouter(rt, cfg), sim::InvalidArgument);
  }
  {
    serve::ClusterConfig cfg = tiny_cluster();
    cfg.breaker_threshold = 1.5;
    EXPECT_THROW(serve::ClusterRouter(rt, cfg), sim::InvalidArgument);
  }
  {
    serve::ClusterConfig cfg = tiny_cluster();
    cfg.breaker_min_samples = 9;  // > breaker_window of 8
    EXPECT_THROW(serve::ClusterRouter(rt, cfg), sim::InvalidArgument);
  }
  {
    // Replica-level injectors are the cluster's job: a pre-wired one is a
    // config error, not silently doubled fault exposure.
    serve::ClusterConfig cfg = tiny_cluster();
    cfg.replica.faults =
        sim::FaultInjector{0x5EED, chip_killer_profile(0.1)};
    EXPECT_THROW(serve::ClusterRouter(rt, cfg), sim::InvalidArgument);
  }
  {
    // Satellite: non-positive backoff cap is a named InvalidArgument.
    serve::ClusterConfig cfg = tiny_cluster();
    cfg.replica.retry_backoff_max = sim::SimTime::zero();
    try {
      serve::ClusterRouter router(rt, cfg);
      FAIL() << "expected InvalidArgument";
    } catch (const sim::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("retry_backoff_max"),
                std::string::npos);
    }
  }
}

// ------------------------------------------- live migration & draining

sim::FaultProfile degrading_profile(double straggler, double hbm,
                                    double chip = 0.0) {
  sim::FaultProfile p;
  p.tpc_straggler_rate = straggler;
  p.hbm_pressure_rate = hbm;
  p.chip_failure_rate = chip;
  p.transient_link_rate = 0.2;
  p.link_degradation_rate = 0.1;
  return p;
}

TEST(Migration, DisabledIsByteIdenticalEvenWithHealthKnobsSet) {
  // The health knobs are inert while migration and draining are both off:
  // no extra draws, no report lines, byte-identical output.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream(16));
  serve::ClusterConfig plain = tiny_cluster(3);
  plain.fault_profile = chip_killer_profile(0.1);
  serve::ClusterConfig knobbed = plain;
  knobbed.health_window = sim::SimTime::from_ms(1.0);
  knobbed.degraded_after = 1;
  serve::ClusterRouter a(rt, plain);
  serve::ClusterRouter b(rt, knobbed);
  const std::string ra = a.run(stream).to_report();
  const std::string rb = b.run(stream).to_report();
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(ra.find("migrate:"), std::string::npos);
  EXPECT_EQ(ra.find("drain:"), std::string::npos);
}

TEST(Migration, AdminDrainCompletesWithoutFailures) {
  // Planned maintenance: drain a replica mid-run with migration on.  Every
  // request completes — running work streams its KV to a peer, queued work
  // re-routes — and the drained replica ends empty.
  ::setenv("GAUDI_VALIDATE", "1", 1);
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::StreamConfig scfg = tiny_stream(16, 400.0);
  scfg.output = {6, 10};
  const auto stream = serve::poisson_stream(scfg);
  serve::ClusterConfig cfg = tiny_cluster(3);
  cfg.replica.kv_budget_bytes = 16384;
  cfg.migration.enabled = true;
  cfg.drain_replica = 0;
  cfg.drain_at = sim::SimTime::from_ms(3.0);
  serve::ClusterRouter router(rt, cfg);
  const serve::ClusterReport r = router.run(stream);
  ::unsetenv("GAUDI_VALIDATE");

  EXPECT_EQ(r.summary.completed, r.summary.offered);
  EXPECT_EQ(r.summary.failed, 0);
  EXPECT_TRUE(r.drain_completed);
  const std::string report = r.to_report();
  EXPECT_NE(report.find("migrate:"), std::string::npos);
  EXPECT_NE(report.find("drain:    replica 0 drained cleanly"),
            std::string::npos);
}

TEST(Migration, DrainWithoutMigrationEvacuatesTheQueueLosslessly) {
  // Migration off, drain on: the pre-migration path evacuates by
  // preempt-and-requeue — running work re-prefills on a peer, queued work
  // re-routes for free.  Nothing fails; only recompute is billed.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream(16, 800.0));
  serve::ClusterConfig cfg = tiny_cluster(3);
  cfg.drain_replica = 1;
  cfg.drain_at = sim::SimTime::zero();
  serve::ClusterRouter router(rt, cfg);
  const serve::ClusterReport r = router.run(stream);
  EXPECT_EQ(r.summary.completed, r.summary.offered);
  EXPECT_EQ(r.summary.failed, 0);
  EXPECT_EQ(r.migrations_started, 0);
  EXPECT_TRUE(r.drain_completed);
  // Drained from the first instant: replica 1 never hosts a dispatch.
  EXPECT_EQ(r.per_replica[1].dispatched, 0);
  const std::string report = r.to_report();
  EXPECT_EQ(report.find("migrate:"), std::string::npos);
  EXPECT_NE(report.find("drain:"), std::string::npos);
}

TEST(Migration, DrainMigratesKvInsteadOfReprefilling) {
  // The tentpole claim: a drained replica's in-flight decodes move with
  // their KV — rows kept, zero re-prefill, zero preemption billing.
  ::setenv("GAUDI_VALIDATE", "1", 1);
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::StreamConfig scfg = tiny_stream(12, 2000.0);
  scfg.prompt = {4, 6};   // context stays under tiny()'s max_seq of 16
  scfg.output = {6, 9};
  const auto stream = serve::poisson_stream(scfg);
  serve::ClusterConfig cfg = tiny_cluster(2);
  cfg.replica.max_batch = 4;
  cfg.replica.kv_budget_bytes = 65536;
  cfg.migration.enabled = true;
  cfg.drain_replica = 0;
  cfg.drain_at = sim::SimTime::from_ms(2.0);
  serve::ClusterRouter router(rt, cfg);
  const serve::ClusterReport r = router.run(stream);
  ::unsetenv("GAUDI_VALIDATE");

  EXPECT_EQ(r.summary.completed, r.summary.offered);
  EXPECT_EQ(r.summary.failed, 0);
  EXPECT_GT(r.migrations_completed, 0);
  EXPECT_GT(r.migrated_rows, 0);
  EXPECT_EQ(r.summary.recomputed_tokens, 0);
  EXPECT_EQ(r.summary.wasted_tokens, 0);
  EXPECT_EQ(r.summary.migrated_rows, r.migrated_rows);
  std::int64_t per_request_migrations = 0;
  for (const serve::RequestMetrics& m : r.requests) {
    per_request_migrations += m.migrations;
  }
  EXPECT_EQ(per_request_migrations, r.migrations_completed);
}

TEST(Migration, FaultedMigrationRunsAreByteIdentical) {
  // Stragglers drive the health score, link faults stretch the KV stream,
  // chips die mid-migration: two runs of it all are still byte-identical.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream(16));
  serve::ClusterConfig cfg = tiny_cluster(3);
  cfg.fault_profile = degrading_profile(0.3, 0.2, 0.1);
  cfg.migration.enabled = true;
  cfg.degraded_after = 2;
  cfg.hedge_budget = sim::SimTime::from_ms(2.0);
  serve::ClusterRouter a(rt, cfg);
  serve::ClusterRouter b(rt, cfg);
  const serve::ClusterReport ra = a.run(stream);
  const std::string rb = b.run(stream).to_report();
  EXPECT_EQ(ra.to_report(), rb);
  EXPECT_GT(ra.migrations_started, 0);
}

TEST(Migration, KillAndMigrateResolvesEveryRequestAcrossSeeds) {
  // Chips die before, during, and after migrations; hedges race the lot.
  // Hammer fault seeds under a validating allocator: every request must
  // end in exactly one typed outcome and no KV block may leak or double.
  ::setenv("GAUDI_VALIDATE", "1", 1);
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream(16, 400.0));
  for (std::uint64_t fault_seed = 1; fault_seed <= 8; ++fault_seed) {
    serve::ClusterConfig cfg = tiny_cluster(3);
    cfg.fault_profile = degrading_profile(0.25, 0.15, 0.3);
    cfg.fault_seed = fault_seed;
    cfg.migration.enabled = true;
    cfg.degraded_after = 2;
    cfg.hedge_budget = sim::SimTime::from_ms(1.0);
    cfg.replica.retry_max = 4;
    cfg.breaker_min_samples = 2;
    cfg.breaker_window = 4;
    serve::ClusterRouter router(rt, cfg);
    const serve::ClusterReport r = router.run(stream);
    EXPECT_EQ(outcome_total(r.summary), r.summary.offered)
        << "fault_seed " << fault_seed;
    EXPECT_EQ(r.migrations_started,
              r.migrations_completed + r.migrations_aborted)
        << "fault_seed " << fault_seed;
  }
  ::unsetenv("GAUDI_VALIDATE");
}

TEST(Migration, HedgeDuringMigrationKeepsExactlyOneCopy) {
  // Satellite: when a request is mid-migration as its hedge budget expires,
  // the router adopts the migration as the duplicate instead of launching a
  // second compute copy — one terminal outcome, no double-billed tokens.
  ::setenv("GAUDI_VALIDATE", "1", 1);
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::StreamConfig scfg = tiny_stream(12, 2000.0);
  scfg.output = {8, 12};
  const auto stream = serve::poisson_stream(scfg);
  for (const double hedge_ms : {0.5, 1.0, 2.0, 4.0}) {
    serve::ClusterConfig cfg = tiny_cluster(2);
    cfg.replica.kv_budget_bytes = 16384;
    cfg.migration.enabled = true;
    cfg.drain_replica = 0;
    cfg.drain_at = sim::SimTime::from_ms(2.0);
    cfg.hedge_budget = sim::SimTime::from_ms(hedge_ms);
    serve::ClusterRouter router(rt, cfg);
    const serve::ClusterReport r = router.run(stream);
    EXPECT_EQ(outcome_total(r.summary), r.summary.offered)
        << "hedge_ms " << hedge_ms;
    EXPECT_EQ(r.summary.failed, 0) << "hedge_ms " << hedge_ms;
    expect_exact_outputs(stream, r.requests);
  }
  ::unsetenv("GAUDI_VALIDATE");
}

/// A Poisson stream of `n` requests at `rate` req/s, as `serve-cluster`
/// generates it from the same flags.
serve::StreamConfig paper_stream(std::int64_t n, double rate,
                                 serve::LengthRange prompt,
                                 serve::LengthRange output,
                                 std::uint64_t seed) {
  serve::StreamConfig cfg;
  cfg.arrival_rate_rps = rate;
  cfg.num_requests = n;
  cfg.prompt = prompt;
  cfg.output = output;
  cfg.seed = seed;
  return cfg;
}

/// A fleet of `gpt2_paper` replicas with live migration under seeded
/// per-replica faults, as `serve-cluster --faults --mtbf M --migrate`
/// builds it.
serve::ClusterConfig paper_chaos_cluster(std::int64_t replicas, double mtbf,
                                         std::uint64_t fault_seed) {
  serve::ClusterConfig cfg;
  cfg.replica.kv_budget_bytes = std::size_t{48} << 20;
  cfg.replica.timing_only = true;
  cfg.replicas = replicas;
  cfg.fault_profile = sim::FaultProfile::from_mtbf_steps(mtbf, 1);
  cfg.fault_seed = fault_seed;
  cfg.migration.enabled = true;
  return cfg;
}

TEST(Migration, EvacuatedHedgeCopyKeepsItsOwnId) {
  // Regression: evacuating a hedge copy off a degraded replica re-queued it
  // under the primary's id while the primary was still live, so two copies
  // of one request met on one replica ("request 238 already holds a KV
  // reservation") or left the router stalled.  Shrunk from fault seed 9 of
  // the router-abort repro in perfbench/README.md.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::StreamConfig scfg =
      paper_stream(300, 40.0, {64, 1024}, {16, 256}, 0x5E21E);
  scfg.deadline = sim::SimTime::from_ms(3000.0);
  const auto stream = serve::poisson_stream(scfg);
  serve::ClusterConfig cfg = paper_chaos_cluster(4, 300, 9);
  cfg.policy = serve::LoadBalancePolicy::kJoinShortestQueue;
  cfg.replica.retry_max = 2;
  cfg.replica.watchdog = sim::SimTime::from_ms(4000.0);
  cfg.hedge_budget = sim::SimTime::from_ms(40.0);
  serve::ClusterRouter router(rt, cfg);
  const serve::ClusterReport r = router.run(stream);
  EXPECT_EQ(outcome_total(r.summary), r.summary.offered);
  EXPECT_GT(r.hedges_launched, 0);
  EXPECT_GT(r.evac_requeues, 0);
  expect_exact_outputs(stream, r.requests);
}

TEST(Migration, EvacuatedCopyNeverOutlivesItsRequest) {
  // Regression: an evacuated copy used to wait in the router queue, outside
  // its request's live copies.  When its twin finished the request first,
  // the copy was still dispatched later, for a request the router had
  // already closed (std::out_of_range from the track map).
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(
      paper_stream(600, 20.0, {32, 1024}, {8, 256}, 316));
  serve::ClusterConfig cfg = paper_chaos_cluster(5, 20, 819);
  cfg.policy = serve::LoadBalancePolicy::kJoinShortestQueue;
  cfg.replica.retry_max = 0;
  cfg.replica.watchdog = sim::SimTime::from_ms(500.0);
  cfg.hedge_budget = sim::SimTime::from_ms(5.0);
  cfg.degraded_after = 1;
  serve::ClusterRouter router(rt, cfg);
  const serve::ClusterReport r = router.run(stream);
  EXPECT_EQ(outcome_total(r.summary), r.summary.offered);
  EXPECT_GT(r.evac_requeues, 0);
  expect_exact_outputs(stream, r.requests);
}

TEST(Migration, DegradedPeerOfADrainDoesNotStallTheRouter) {
  // Regression: replica 1 drains from the start and replica 0 degrades.
  // Evacuation used to park replica 0's work in the router queue, its
  // half-open probe included: once replica 0 recovered it waited for a
  // probe that never came, and the router stalled with the whole queue
  // unresolved.  A copy with nowhere to go now keeps running where it is.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::StreamConfig scfg = paper_stream(100, 80.0, {32, 256}, {8, 256}, 322);
  scfg.deadline = sim::SimTime::from_ms(1000.0);
  const auto stream = serve::poisson_stream(scfg);
  serve::ClusterConfig cfg = paper_chaos_cluster(2, 300, 987);
  cfg.replica.kv_budget_bytes = std::size_t{16} << 20;
  cfg.replica.retry_max = 2;
  cfg.replica.watchdog = sim::SimTime::from_ms(500.0);
  cfg.hedge_budget = sim::SimTime::from_ms(10.0);
  cfg.suspicion_timeout = sim::SimTime::from_ms(60.0);
  cfg.drain_replica = 1;
  serve::ClusterRouter router(rt, cfg);
  const serve::ClusterReport r = router.run(stream);
  EXPECT_EQ(outcome_total(r.summary), r.summary.offered);
  EXPECT_TRUE(r.drain_completed);
  expect_exact_outputs(stream, r.requests);
}

TEST(Migration, BreakerDoesNotProbeADrainingReplica) {
  // Satellite: the half-open probe must not route work onto a replica being
  // evacuated, and completing a drain must not reset breaker counters.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream(16, 800.0));
  serve::ClusterConfig cfg = tiny_cluster(3);
  cfg.migration.enabled = true;
  cfg.drain_replica = 2;
  cfg.drain_at = sim::SimTime::zero();
  cfg.breaker_min_samples = 1;
  cfg.breaker_window = 2;
  serve::ClusterRouter router(rt, cfg);
  const serve::ClusterReport r = router.run(stream);
  // Draining from t=0: replica 2 never receives a dispatch — not even a
  // breaker probe — yet the drain completes and nothing fails.
  EXPECT_EQ(r.per_replica[2].dispatched, 0);
  EXPECT_EQ(r.summary.failed, 0);
  EXPECT_TRUE(r.drain_completed);
  EXPECT_EQ(r.summary.completed, r.summary.offered);
}

TEST(Migration, DrainDoesNotResetBreakerCounters) {
  // Satellite: a drain is an evacuation, not an absolution.  Replica 0's
  // breaker opens under chip-failure flapping before the drain lands; the
  // final report must still carry that open — a drain that zeroed the
  // outcome window would erase it.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const auto stream = serve::poisson_stream(tiny_stream(16));
  serve::ClusterConfig cfg = tiny_cluster(3);
  cfg.fault_profile = chip_killer_profile(0.5);
  cfg.replica.retry_max = 6;
  cfg.breaker_min_samples = 2;
  cfg.breaker_window = 4;
  cfg.migration.enabled = true;
  cfg.drain_replica = 0;
  cfg.drain_at = sim::SimTime::from_ms(20.0);
  serve::ClusterRouter router(rt, cfg);
  const serve::ClusterReport r = router.run(stream);
  EXPECT_TRUE(r.drain_completed);
  EXPECT_GT(r.per_replica[0].breaker_opens, 0);
  std::int64_t per_replica_opens = 0;
  for (const serve::ReplicaStats& s : r.per_replica) {
    per_replica_opens += s.breaker_opens;
  }
  EXPECT_EQ(per_replica_opens, r.breaker_opens);
  EXPECT_EQ(outcome_total(r.summary), r.summary.offered);
}

TEST(Migration, RejectsBadConfigs) {
  const graph::Runtime rt(sim::ChipConfig::hls1());
  {
    serve::ClusterConfig cfg = tiny_cluster();
    cfg.migration.enabled = true;
    cfg.migration.chunk_blocks = 0;
    try {
      serve::ClusterRouter router(rt, cfg);
      FAIL() << "expected InvalidArgument";
    } catch (const sim::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("chunk_blocks"),
                std::string::npos);
    }
  }
  {
    serve::ClusterConfig cfg = tiny_cluster(2);
    cfg.drain_replica = 2;  // out of range
    EXPECT_THROW(serve::ClusterRouter(rt, cfg), sim::InvalidArgument);
  }
  {
    serve::ClusterConfig cfg = tiny_cluster(1);
    cfg.drain_replica = 0;  // nowhere to move the work
    EXPECT_THROW(serve::ClusterRouter(rt, cfg), sim::InvalidArgument);
  }
  {
    serve::ClusterConfig cfg = tiny_cluster(2);
    cfg.drain_replica = 0;
    cfg.drain_at = sim::SimTime::from_ms(-1.0);
    EXPECT_THROW(serve::ClusterRouter(rt, cfg), sim::InvalidArgument);
  }
  {
    serve::ClusterConfig cfg = tiny_cluster(2);
    cfg.migration.enabled = true;
    cfg.health_window = sim::SimTime::zero();
    EXPECT_THROW(serve::ClusterRouter(rt, cfg), sim::InvalidArgument);
  }
  {
    serve::ClusterConfig cfg = tiny_cluster(2);
    cfg.migration.enabled = true;
    cfg.degraded_after = 0;
    EXPECT_THROW(serve::ClusterRouter(rt, cfg), sim::InvalidArgument);
  }
}

/// Field-by-field equality of two per-request records.
void expect_same_records(const std::vector<serve::RequestMetrics>& a,
                         const std::vector<serve::RequestMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(a[i].id));
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].first_token, b[i].first_token);
    EXPECT_EQ(a[i].finish, b[i].finish);
    EXPECT_EQ(a[i].tokens_out, b[i].tokens_out);
    EXPECT_EQ(a[i].preemptions, b[i].preemptions);
    EXPECT_EQ(a[i].fault_retries, b[i].fault_retries);
    EXPECT_EQ(a[i].migrations, b[i].migrations);
    EXPECT_EQ(a[i].met_deadline, b[i].met_deadline);
  }
}

TEST(ServeDrivers, OneReplicaRouterMatchesRun) {
  // run() and the router consume the same step() events.  Without faults,
  // a one-replica router with its breaker off must therefore reproduce
  // run() exactly, through preemption, shedding and watchdog timeouts.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  serve::StreamConfig scfg = tiny_stream(40, 200.0);
  scfg.prompt = {4, 8};
  scfg.output = {4, 8};
  scfg.priority_levels = 3;
  const auto stream = serve::poisson_stream(scfg);
  serve::ClusterConfig cfg = tiny_cluster(1);
  cfg.replica.kv_budget_bytes = 4 * 4 * 128;  // 4 blocks: forces preemption
  cfg.replica.shed_queue_depth = 6;
  cfg.replica.watchdog = sim::SimTime::from_ms(60.0);
  cfg.breaker_enabled = false;

  serve::ContinuousBatchScheduler sched(rt, cfg.replica);
  const serve::ServeReport alone = sched.run(stream);
  serve::ClusterRouter router(rt, cfg);
  const serve::ClusterReport fleet = router.run(stream);

  EXPECT_GT(alone.summary.preemptions, 0);
  EXPECT_GT(alone.summary.shed, 0);
  EXPECT_GT(alone.summary.timed_out, 0);
  EXPECT_EQ(fleet.summary.to_report(), alone.summary.to_report());
  expect_same_records(fleet.requests, alone.requests);
}

/// run()'s half of the event stream, rebuilt here so the test can drive
/// step() itself.
void record_event(serve::MetricsSink& sink, const serve::ReplicaEvent& e) {
  switch (e.kind) {
    case serve::ReplicaEventKind::kFirstToken:
      sink.on_first_token(e.id, e.at);
      break;
    case serve::ReplicaEventKind::kToken:
      sink.on_token(e.id, sim::SimTime::from_ps(e.aux), e.count);
      break;
    case serve::ReplicaEventKind::kComplete: sink.on_complete(e.id, e.at); break;
    case serve::ReplicaEventKind::kReject: sink.on_reject(e.id, e.at); break;
    case serve::ReplicaEventKind::kDrop: sink.on_drop(e.id, e.at); break;
    case serve::ReplicaEventKind::kShed: sink.on_shed(e.id, e.at); break;
    case serve::ReplicaEventKind::kTimeout: sink.on_timeout(e.id, e.at); break;
    case serve::ReplicaEventKind::kPreempt: sink.on_preempt(e.id, e.aux); break;
  }
}

/// What a test-local driver of step() ends with.
struct Driven {
  std::int64_t iterations = 0;
  std::int64_t steps = 0;
  std::string summary;
  std::vector<serve::RequestMetrics> requests;
};

/// Drives a fresh scheduler over `stream` (sorted by arrival, no faults) the
/// way run() does: one step() per call, each with the next arrival as its
/// horizon when `stretch` is set and with no horizon otherwise.
Driven drive(const graph::Runtime& rt, const serve::ServeConfig& cfg,
             const std::vector<serve::Request>& stream, bool stretch) {
  serve::ContinuousBatchScheduler sched(rt, cfg);
  serve::MetricsSink sink;
  for (const serve::Request& r : stream) sink.on_offered(r);
  Driven out;
  std::size_t next = 0;
  sim::SimTime now{};
  while (true) {
    while (next < stream.size() && stream[next].arrival <= now) {
      sched.enqueue(stream[next++]);
    }
    const sim::SimTime until = !stretch                ? sim::SimTime::zero()
                               : next < stream.size() ? stream[next].arrival
                                                      : sim::SimTime::max();
    const serve::ContinuousBatchScheduler::StepResult sr =
        sched.step(now, until);
    out.steps += sr.worked ? 1 : 0;
    for (const serve::ReplicaEvent& e : sr.events) {
      if (!stretch) {
        EXPECT_EQ(e.count, 1);
      }
      record_event(sink, e);
    }
    if (sr.worked) {
      now = sr.end;
      continue;
    }
    std::optional<sim::SimTime> wake = sched.next_wake();
    if (next < stream.size() && (!wake || stream[next].arrival < *wake)) {
      wake = stream[next].arrival;
    }
    if (!wake) break;
    now = *wake;
  }
  out.iterations = sched.iterations();
  out.summary = sink.summary(now).to_report();
  out.requests = sink.requests();
  return out;
}

TEST(ServeDrivers, StretchedRunMatchesSingleIterationsFuzz) {
  // run() hands step() its next arrival as a horizon, so it runs repeated
  // decode iterations as stretches.  A one-replica router with its breaker
  // off, and a local loop of step(now) calls, run every iteration alone.
  // Over seeded streams and configs that preempt, shed, time out and drop,
  // all must agree on the summary's bytes and every per-request record, and
  // the loop on the iteration count.
  const graph::Runtime rt(sim::ChipConfig::hls1());
  const double watchdog_ms[] = {1.0, 2.5, 3.0, 5.0, 12.0, 40.0, 100.0};
  std::int64_t iterations = 0, steps = 0, preempted = 0, shed = 0,
               timed_out = 0, dropped = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const sim::CounterRng rng(seed, 0x57E7C4);
    std::uint64_t draw = 0;
    const auto pick = [&](std::int64_t lo, std::int64_t hi) {
      return lo + static_cast<std::int64_t>(
                      rng.below(draw++, static_cast<std::uint64_t>(hi - lo + 1)));
    };
    serve::StreamConfig scfg;
    scfg.num_requests = pick(8, 48);
    scfg.arrival_rate_rps = static_cast<double>(pick(2, 150));
    const std::int64_t prompt_lo = pick(1, 12);
    scfg.prompt = {prompt_lo, prompt_lo + pick(0, 12)};
    const std::int64_t output_lo = pick(1, 16);
    scfg.output = {output_lo, output_lo + pick(0, 64)};
    scfg.priority_levels = static_cast<std::int32_t>(pick(1, 3));
    if (pick(0, 2) == 0) {
      scfg.deadline = sim::SimTime::from_ms(static_cast<double>(pick(20, 300)));
    }
    scfg.seed = seed;
    const auto stream = serve::poisson_stream(scfg);

    serve::ClusterConfig cfg = tiny_cluster(1);
    cfg.breaker_enabled = false;
    serve::ServeConfig& rc = cfg.replica;
    rc.model.max_seq = 96;
    rc.max_batch = pick(1, 8);
    rc.block_tokens = std::int64_t{1} << pick(pick(0, 1), 6);
    rc.ctx_bucket = pick(1, 64);
    rc.prefill_chunk = pick(1, 16);
    // Blocks for the largest admissible request, plus at most twice that:
    // a few co-resident requests exhaust the pool and preempt.
    const std::int64_t rows =
        std::min<std::int64_t>(scfg.prompt.hi + scfg.output.hi - 1, 96);
    const std::int64_t need = (rows + rc.block_tokens - 1) / rc.block_tokens;
    rc.kv_budget_bytes = static_cast<std::size_t>(
        (need + pick(0, 2 * need)) * rc.block_tokens * 128);
    if (pick(0, 2) != 0) {
      rc.watchdog = sim::SimTime::from_ms(watchdog_ms[pick(0, 6)]);
    }
    if (pick(0, 2) == 0) rc.shed_queue_depth = pick(1, 8);
    if (pick(0, 3) == 0) rc.shed_min_free_blocks = pick(1, 3);

    SCOPED_TRACE("seed " + std::to_string(seed));
    serve::ContinuousBatchScheduler sched(rt, rc);
    const serve::ServeReport alone = sched.run(stream);
    serve::ClusterRouter router(rt, cfg);
    const serve::ClusterReport fleet = router.run(stream);
    const Driven single = drive(rt, rc, stream, false);
    const Driven stretched = drive(rt, rc, stream, true);

    EXPECT_EQ(fleet.summary.to_report(), alone.summary.to_report());
    expect_same_records(fleet.requests, alone.requests);
    EXPECT_EQ(single.iterations, alone.iterations);
    EXPECT_EQ(single.summary, alone.summary.to_report());
    expect_same_records(single.requests, alone.requests);
    EXPECT_EQ(stretched.iterations, alone.iterations);
    EXPECT_EQ(stretched.summary, alone.summary.to_report());
    iterations += alone.iterations;
    steps += stretched.steps;
    preempted += alone.summary.preemptions;
    shed += alone.summary.shed;
    timed_out += alone.summary.timed_out;
    dropped += alone.summary.dropped;
  }
  // The axes reach what they are for, and over a quarter of the iterations
  // run inside stretches.
  EXPECT_GT(preempted, 0);
  EXPECT_GT(shed, 0);
  EXPECT_GT(timed_out, 0);
  EXPECT_GT(dropped, 0);
  EXPECT_LT(4 * steps, 3 * iterations);
}

// ------------------------------------------------------------- CLI surface

int run(std::initializer_list<const char*> args, std::string* out = nullptr) {
  std::vector<std::string> v{"gaudisim_cli"};
  v.insert(v.end(), args.begin(), args.end());
  std::ostringstream os;
  const int rc = core::run_cli(v, os);
  if (out) *out = os.str();
  return rc;
}

TEST(CliServeCluster, SmokeRunIsDeterministic) {
  std::string a;
  std::string b;
  const std::initializer_list<const char*> cmd = {
      "serve-cluster", "--requests",    "8",  "--rate",    "40",
      "--replicas",    "3",             "--faults",        "--mtbf",
      "30",            "--timing-only", "on", "--hedge-ms", "6"};
  ASSERT_EQ(run(cmd, &a), 0);
  ASSERT_EQ(run(cmd, &b), 0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("cluster:"), std::string::npos);
  EXPECT_NE(a.find("replica 2:"), std::string::npos);
}

TEST(CliServeCluster, ValidatesItsFlags) {
  std::string out;
  EXPECT_EQ(run({"serve-cluster", "--replicas", "0"}, &out), 1);
  EXPECT_NE(out.find("--replicas"), std::string::npos);
  EXPECT_EQ(run({"serve-cluster", "--lb", "fastest"}, &out), 1);
  EXPECT_NE(out.find("fastest"), std::string::npos);
  EXPECT_EQ(run({"serve-cluster", "--suspicion-ms", "0"}, &out), 1);
  EXPECT_NE(out.find("--suspicion-ms"), std::string::npos);
  EXPECT_EQ(run({"serve-cluster", "--hedge-ms", "-1"}, &out), 1);
  EXPECT_NE(out.find("--hedge-ms"), std::string::npos);
  EXPECT_EQ(run({"serve-cluster", "--breaker-threshold", "2"}, &out), 1);
  EXPECT_NE(out.find("--breaker-threshold"), std::string::npos);
  EXPECT_EQ(run({"serve-cluster", "--breaker-cooldown-ms", "0"}, &out), 1);
  EXPECT_NE(out.find("--breaker-cooldown-ms"), std::string::npos);
  EXPECT_EQ(run({"serve-cluster", "--retry-backoff-max-ms", "0"}, &out), 1);
  EXPECT_NE(out.find("--retry-backoff-max-ms"), std::string::npos);
  EXPECT_EQ(run({"serve-cluster", "--nonsense", "1"}, &out), 1);
  // Satellite: every migration/drain flag rejects bad values by name.
  EXPECT_EQ(run({"serve-cluster", "--migration-chunk-blocks", "0"}, &out), 1);
  EXPECT_NE(out.find("--migration-chunk-blocks"), std::string::npos);
  EXPECT_EQ(run({"serve-cluster", "--replicas", "1", "--drain-replica", "0"},
                &out),
            1);
  EXPECT_NE(out.find("--drain-replica"), std::string::npos);
  EXPECT_EQ(run({"serve-cluster", "--replicas", "3", "--drain-replica", "3"},
                &out),
            1);
  EXPECT_NE(out.find("--drain-replica"), std::string::npos);
  EXPECT_EQ(run({"serve-cluster", "--drain-at-ms", "5"}, &out), 1);
  EXPECT_NE(out.find("--drain-at-ms requires --drain-replica"),
            std::string::npos);
  EXPECT_EQ(run({"serve-cluster", "--replicas", "2", "--drain-replica", "0",
                 "--drain-at-ms", "-1"},
                &out),
            1);
  EXPECT_NE(out.find("--drain-at-ms"), std::string::npos);
  EXPECT_EQ(run({"serve-cluster", "--migrate", "--health-window-ms", "0"},
                &out),
            1);
  EXPECT_NE(out.find("--health-window-ms"), std::string::npos);
  EXPECT_EQ(run({"serve-cluster", "--migrate", "--degraded-after", "0"}, &out),
            1);
  EXPECT_NE(out.find("--degraded-after"), std::string::npos);
}

TEST(CliServeCluster, MigrationSmokeRunIsDeterministic) {
  std::string a;
  std::string b;
  const std::initializer_list<const char*> cmd = {
      "serve-cluster", "--requests", "12",          "--rate",
      "60",            "--replicas", "3",           "--faults",
      "--mtbf",        "30",         "--migrate",   "--timing-only",
      "on",            "--hedge-ms", "6"};
  ASSERT_EQ(run(cmd, &a), 0);
  ASSERT_EQ(run(cmd, &b), 0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("migrate:"), std::string::npos);
  EXPECT_NE(a.find("migrated in"), std::string::npos);
}

TEST(CliServeCluster, DrainQuickstartDrainsCleanly) {
  // The README quickstart: drain replica 0 twenty simulated ms in, with
  // live migration carrying its KV to the survivors — the migrate line
  // must show actual rows on the wire, not a trivially empty drain.
  std::string out;
  ASSERT_EQ(run({"serve-cluster", "--requests", "24", "--rate", "120",
                 "--replicas", "3", "--migrate", "--drain-replica", "0",
                 "--drain-at-ms", "20", "--timing-only", "on"},
                &out),
            0);
  EXPECT_NE(out.find("drain:    replica 0 drained cleanly"),
            std::string::npos);
  EXPECT_NE(out.find(" 0 failed"), std::string::npos);
  EXPECT_EQ(out.find("migrate:  0 started"), std::string::npos);
}

}  // namespace
}  // namespace gaudi
