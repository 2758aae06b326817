// Serving throughput-latency curves — the multi-tenant regime the paper's
// single-job profiles feed into — run twice: once with full cost
// derivation (every scheduler builds, compiles, and event-schedules each
// decode/prefill bucket graph itself) and once in timing-only mode (each
// step makespan is priced once per sweep and then shared through the
// process-wide timing memo).  Both passes price a missed shape with the
// same timing-mode run, so they must agree on every reported number; the
// interesting output is the host wall-clock ratio between them, which is
// what makes wide batch sweeps cheap.  The memo line counts makespan
// entries: one per priced shape, each a miss first and a hit after.
//
// Everything here is deterministic: the same (seed, rate, batch) cell
// reproduces byte-identical metrics, which the final self-check asserts by
// rendering one cell twice.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/table.hpp"
#include "graph/runtime.hpp"
#include "graph/timing_memo.hpp"
#include "serve/cluster.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "sim/error.hpp"

int main() {
  using namespace gaudi;
  const graph::Runtime rt(sim::ChipConfig::hls1());

  const std::vector<double> rates = {2.0,  3.0,  4.0,  6.0,  8.0,  12.0,
                                     16.0, 24.0, 32.0, 48.0, 64.0, 96.0};
  const std::vector<std::int64_t> batches = {4, 8};

  // Streams are generated once up front: both execution modes schedule the
  // exact same requests, so workload generation stays out of the timed
  // region.
  std::vector<std::vector<serve::Request>> streams;
  streams.reserve(rates.size());
  for (const double rate : rates) {
    serve::StreamConfig scfg;
    scfg.arrival_rate_rps = rate;
    scfg.num_requests = 48;
    scfg.prompt = {64, 192};
    scfg.output = {16, 64};
    scfg.deadline = sim::SimTime::from_ms(4000.0);
    streams.push_back(serve::poisson_stream(scfg));
  }

  auto run_cell = [&](std::size_t rate_idx, std::int64_t max_batch,
                      bool timing_only) {
    serve::ServeConfig cfg;
    cfg.max_batch = max_batch;
    cfg.kv_budget_bytes = 16ull * 1024 * 1024;
    cfg.ctx_bucket = 16;  // fine-grained step costs: 16-token context buckets
    cfg.timing_only = timing_only;
    serve::ContinuousBatchScheduler sched(rt, cfg);
    return sched.run(streams[rate_idx]);
  };

  auto run_sweep = [&](bool timing_only) {
    std::vector<std::string> reports;
    reports.reserve(rates.size() * batches.size());
    for (const std::int64_t batch : batches) {
      for (std::size_t i = 0; i < rates.size(); ++i) {
        reports.push_back(run_cell(i, batch, timing_only).to_report());
      }
    }
    return reports;
  };

  graph::TimingMemo::global().clear();
  const bench::WallClock functional_clock;
  const std::vector<std::string> functional = run_sweep(false);
  const double functional_s = functional_clock.seconds();

  graph::TimingMemo::global().clear();
  const bench::WallClock fast_clock;
  const std::vector<std::string> fast = run_sweep(true);
  const double fast_s = fast_clock.seconds();

  // Mode equivalence: the fast path may change how long the *simulator*
  // takes, never what it reports.
  for (std::size_t i = 0; i < functional.size(); ++i) {
    if (functional[i] != fast[i]) {
      std::printf("\nFAIL: timing-only report diverged in cell %zu\n", i);
      std::fputs(functional[i].c_str(), stdout);
      std::fputs(fast[i].c_str(), stdout);
      return 1;
    }
  }

  core::TextTable table({"Rate", "Batch", "Tok/s", "Goodput", "TTFT p50",
                         "TTFT p99", "ITL p50", "ITL p99", "Preempt"});
  for (const std::int64_t batch : batches) {
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const double rate = rates[i];
      const serve::ServeReport r = run_cell(i, batch, true);
      table.add_row({core::TextTable::num(rate, 0) + " req/s",
                     std::to_string(batch),
                     core::TextTable::num(r.summary.throughput_tok_s, 1),
                     core::TextTable::num(r.summary.goodput_tok_s, 1),
                     core::TextTable::num(r.summary.ttft_p50_ms, 1) + " ms",
                     core::TextTable::num(r.summary.ttft_p99_ms, 1) + " ms",
                     core::TextTable::num(r.summary.itl_p50_ms, 2) + " ms",
                     core::TextTable::num(r.summary.itl_p99_ms, 2) + " ms",
                     std::to_string(r.summary.preemptions)});
    }
  }

  std::puts("Serving throughput-latency sweep (GPT-2 decode model, Poisson");
  std::puts("arrivals, 48 requests, prompts 64-192, outputs 16-64, 4 s SLO):");
  std::fputs(table.to_string().c_str(), stdout);
  std::puts("\nPast the saturation knee the offered load outruns the token");
  std::puts("rate: throughput flattens while TTFT tails stretch — adding");
  std::puts("batch slots moves the knee right at the cost of per-token ITL.");

  const graph::TimingMemo& memo = graph::TimingMemo::global();
  const double speedup = functional_s / (fast_s > 0.0 ? fast_s : 1e-9);
  std::printf(
      "\nexecution modes (%zu cells, identical reports):\n"
      "  functional   %8.3f s wall\n"
      "  timing-only  %8.3f s wall  (%.1fx faster)\n"
      "  timing memo: %zu entries, %lld hits, %lld misses\n",
      functional.size(), functional_s, fast_s, speedup, memo.size(),
      static_cast<long long>(memo.hits()),
      static_cast<long long>(memo.misses()));
  if (speedup < 3.0) {
    std::puts("FAIL: timing-only mode is expected to be >=3x faster");
    return 1;
  }

  // Determinism self-check: one cell, rendered twice, must be bytes-equal.
  const std::string a = run_cell(4, 4, true).to_report();
  const std::string b = run_cell(4, 4, true).to_report();
  if (a != b) {
    std::puts("\nFAIL: same-seed serving runs diverged");
    return 1;
  }
  std::puts("\ndeterminism: same-seed rerun is byte-identical");

  // --- Goodput under faults: MTBF x retry-policy sweep ---------------------
  // Chip failures abort in-flight batches and invalidate their KV; the
  // retry budget decides whether the lost work is recomputed (goodput dips,
  // availability holds) or the requests fail terminally.  Every cell runs
  // in both execution modes and must report identical bytes: the fault
  // schedule is a pure function of (fault seed, iteration), not of how step
  // costs were derived.
  serve::StreamConfig fcfg;
  fcfg.arrival_rate_rps = 16.0;
  fcfg.num_requests = 24;
  fcfg.prompt = {64, 192};
  fcfg.output = {16, 64};
  fcfg.deadline = sim::SimTime::from_ms(4000.0);
  const std::vector<serve::Request> fault_stream = serve::poisson_stream(fcfg);
  const std::vector<std::int64_t> mtbfs = {0, 40, 120};  // 0 = faults off
  const std::vector<std::int32_t> retries = {0, 3};

  auto run_fault_cell = [&](std::int64_t mtbf, std::int32_t retry_max,
                            bool timing_only) {
    serve::ServeConfig cfg;
    cfg.max_batch = 4;
    cfg.kv_budget_bytes = 16ull * 1024 * 1024;
    cfg.ctx_bucket = 16;
    cfg.timing_only = timing_only;
    if (mtbf > 0) {
      cfg.faults = sim::FaultInjector{
          0xFA517, sim::FaultProfile::from_mtbf_steps(
                       static_cast<double>(mtbf), /*chips=*/1)};
    }
    cfg.retry_max = retry_max;
    serve::ContinuousBatchScheduler sched(rt, cfg);
    return sched.run(fault_stream);
  };

  core::TextTable fault_table({"MTBF", "Retry", "Goodput", "Avail", "Failed",
                               "Retries", "Wasted tok"});
  for (const std::int64_t mtbf : mtbfs) {
    for (const std::int32_t retry_max : retries) {
      const serve::ServeReport fr = run_fault_cell(mtbf, retry_max, false);
      const serve::ServeReport tr = run_fault_cell(mtbf, retry_max, true);
      if (fr.to_report() != tr.to_report()) {
        std::printf("\nFAIL: fault cell mtbf=%lld retry=%d diverged by mode\n",
                    static_cast<long long>(mtbf), retry_max);
        std::fputs(fr.to_report().c_str(), stdout);
        std::fputs(tr.to_report().c_str(), stdout);
        return 1;
      }
      const double avail = fr.summary.availability;
      fault_table.add_row(
          {mtbf > 0 ? std::to_string(mtbf) + " it" : "off",
           std::to_string(retry_max),
           core::TextTable::num(fr.summary.goodput_tok_s, 1),
           core::TextTable::num(avail * 100.0, 1) + "%",
           std::to_string(fr.summary.failed),
           std::to_string(fr.summary.fault_retries),
           std::to_string(fr.summary.wasted_tokens)});
    }
  }
  std::puts("\nGoodput under chip faults (24 requests, 4 slots; both");
  std::puts("execution modes agree per cell):");
  std::fputs(fault_table.to_string().c_str(), stdout);
  std::puts("\nShorter MTBF wastes more computed KV; a zero retry budget");
  std::puts("converts that waste into terminal failures and lost");
  std::puts("availability, while a small budget recovers it as goodput.");

  // --- Fleet availability: MTBF x replica-count x hedging sweep ------------
  // A single replica rides out every chip failure alone: requests wait for
  // the restart, burn their retry budget against the same chip, and fail.
  // Replicas convert the same per-chip fault stream into failovers — a
  // survivor re-prefills the lost work — and hedging converts slow first
  // tokens into races.  The sweep asserts the headline claim: at the same
  // per-replica MTBF, any N >= 2 fleet has strictly higher availability
  // than N = 1.
  //
  // Cluster cells warm-start from GAUDI_MEMO_FILE when set: a previous
  // process's step-cost tables load here, and this process saves its own
  // tables back at the end.
  if (!graph::memo_file_from_env().empty()) {
    try {
      const std::size_t loaded =
          graph::TimingMemo::global().load_times(graph::memo_file_from_env());
      std::printf("\ntiming memo: warm-started %zu entries from %s\n", loaded,
                  graph::memo_file_from_env().c_str());
    } catch (const sim::CheckpointError&) {
      std::puts("\ntiming memo: no usable GAUDI_MEMO_FILE yet (cold start)");
    }
  }

  serve::StreamConfig ccfg_stream;
  ccfg_stream.arrival_rate_rps = 16.0;
  ccfg_stream.num_requests = 24;
  ccfg_stream.prompt = {64, 192};
  ccfg_stream.output = {16, 64};
  ccfg_stream.deadline = sim::SimTime::from_ms(1000.0);
  const std::vector<serve::Request> cluster_stream =
      serve::poisson_stream(ccfg_stream);
  const std::vector<std::int64_t> cluster_mtbfs = {30, 40};
  const std::vector<std::int64_t> replica_counts = {1, 2, 3};

  auto run_cluster_cell = [&](std::int64_t mtbf, std::int64_t replicas,
                              bool hedging, bool timing_only) {
    serve::ClusterConfig cfg;
    cfg.replica.max_batch = 4;
    cfg.replica.kv_budget_bytes = 16ull * 1024 * 1024;
    cfg.replica.ctx_bucket = 16;
    cfg.replica.timing_only = timing_only;
    cfg.replica.retry_max = 2;
    cfg.replicas = replicas;
    cfg.fault_profile = sim::FaultProfile::from_mtbf_steps(
        static_cast<double>(mtbf), /*chips=*/1);
    if (hedging) cfg.hedge_budget = sim::SimTime::from_ms(8.0);
    serve::ClusterRouter router(rt, cfg);
    return router.run(cluster_stream);
  };

  core::TextTable cluster_table({"MTBF", "Replicas", "Hedge", "Avail",
                                 "Failovers", "Hedge wins", "Wasted tok",
                                 "TTFT p99"});
  for (const std::int64_t mtbf : cluster_mtbfs) {
    for (const bool hedging : {false, true}) {
      double single_avail = 0.0;
      for (const std::int64_t replicas : replica_counts) {
        const serve::ClusterReport cr =
            run_cluster_cell(mtbf, replicas, hedging, true);
        const double avail = cr.summary.availability;
        if (replicas == 1) {
          single_avail = avail;
        } else if (avail <= single_avail) {
          std::printf(
              "\nFAIL: %lld replicas (mtbf=%lld, hedge=%d) availability "
              "%.3f must beat single-replica %.3f\n",
              static_cast<long long>(replicas), static_cast<long long>(mtbf),
              hedging ? 1 : 0, avail, single_avail);
          return 1;
        }
        cluster_table.add_row(
            {std::to_string(mtbf) + " it", std::to_string(replicas),
             hedging ? "8 ms" : "off",
             core::TextTable::num(avail * 100.0, 1) + "%",
             std::to_string(cr.failovers), std::to_string(cr.hedge_wins),
             std::to_string(cr.summary.wasted_tokens),
             core::TextTable::num(cr.summary.ttft_p99_ms, 1) + " ms"});
      }
    }
  }
  std::puts("\nFleet availability under chip faults (24 requests, retry");
  std::puts("budget 2, 1 s SLO; per-replica MTBF, decorrelated streams):");
  std::fputs(cluster_table.to_string().c_str(), stdout);
  std::puts("\nEvery N >= 2 row strictly beats its N = 1 row: failover");
  std::puts("turns chip loss into re-prefill on a survivor instead of");
  std::puts("retry-and-fail against the restarting chip.");

  // Cluster mode equivalence + determinism: one cell in both execution
  // modes and twice in the same mode must render identical bytes.
  {
    const std::string f =
        run_cluster_cell(30, 2, true, false).to_report();
    const std::string t1 = run_cluster_cell(30, 2, true, true).to_report();
    const std::string t2 = run_cluster_cell(30, 2, true, true).to_report();
    if (f != t1 || t1 != t2) {
      std::puts("\nFAIL: cluster cell diverged across modes or reruns");
      std::fputs(f.c_str(), stdout);
      std::fputs(t1.c_str(), stdout);
      return 1;
    }
    std::puts("\ncluster determinism: mode-independent and rerun-stable");
  }

  // --- Live migration vs preempt-and-re-prefill draining ------------------
  // A replica drained for maintenance must hand its work to the survivors.
  // The pre-migration cluster can only preempt: every running request's KV
  // releases on the spot and the full context recomputes on a peer.  Live
  // migration streams the paged KV blocks over the fabric instead and cuts
  // over with zero re-prefill.  The sweep drains replica 0 mid-burst under
  // a degradation-heavy fault mix (stragglers, HBM pressure, link faults —
  // no outright chip deaths, so the two modes face identical degradation)
  // and asserts the tentpole claims per cell: migration-off moves nothing
  // and pays the re-prefill bill, migration-on carries KV rows no preempt
  // could save, goodput with migration never falls below the re-prefill
  // baseline, and every cell is byte-identical across execution modes.
  const std::vector<std::int64_t> degradation_mtbfs = {10, 20, 40};

  serve::StreamConfig dcfg_stream;
  dcfg_stream.arrival_rate_rps = 24.0;
  dcfg_stream.num_requests = 24;
  dcfg_stream.prompt = {64, 192};
  dcfg_stream.output = {16, 64};
  dcfg_stream.deadline = sim::SimTime::from_ms(1000.0);
  const std::vector<serve::Request> drain_stream =
      serve::poisson_stream(dcfg_stream);

  auto run_migration_cell = [&](std::int64_t mtbf, bool migrate,
                                bool timing_only) {
    serve::ClusterConfig cfg;
    cfg.replica.max_batch = 4;
    cfg.replica.kv_budget_bytes = 16ull * 1024 * 1024;
    cfg.replica.ctx_bucket = 16;
    cfg.replica.timing_only = timing_only;
    cfg.replica.retry_max = 2;
    cfg.replicas = 3;
    // Degradation without death: one straggler/stall event every `mtbf`
    // iterations per replica stretches heartbeats, and the KV stream rides
    // links that drop and degrade at the same cadence — but no chip dies,
    // so the goodput delta isolates the drain mechanism itself.
    sim::FaultProfile p;
    p.tpc_straggler_rate = 1.0 / static_cast<double>(mtbf);
    p.hbm_pressure_rate = 1.0 / static_cast<double>(mtbf);
    p.transient_link_rate = 1.0 / static_cast<double>(mtbf);
    p.link_degradation_rate = 0.2 / static_cast<double>(mtbf);
    p.straggler_slowdown = 3.0;
    p.hbm_pressure_stall = sim::SimTime::from_ms(10.0);
    cfg.fault_profile = p;
    cfg.migration.enabled = migrate;
    cfg.degraded_after = 6;
    cfg.drain_replica = 0;
    cfg.drain_at = sim::SimTime::from_ms(150.0);
    serve::ClusterRouter router(rt, cfg);
    return router.run(drain_stream);
  };

  core::TextTable migration_table({"Degr MTBF", "Migrate", "Goodput", "Avail",
                                   "Rows saved", "Recompute", "Wasted tok",
                                   "TTFT p99"});
  for (const std::int64_t mtbf : degradation_mtbfs) {
    double goodput_off = 0.0;
    for (const bool migrate : {false, true}) {
      const serve::ClusterReport fr = run_migration_cell(mtbf, migrate, false);
      const serve::ClusterReport tr = run_migration_cell(mtbf, migrate, true);
      if (fr.to_report() != tr.to_report()) {
        std::printf("\nFAIL: migration cell mtbf=%lld migrate=%d diverged "
                    "by execution mode\n",
                    static_cast<long long>(mtbf), migrate ? 1 : 0);
        std::fputs(fr.to_report().c_str(), stdout);
        std::fputs(tr.to_report().c_str(), stdout);
        return 1;
      }
      if (!fr.drain_completed) {
        std::printf("\nFAIL: drain did not complete (mtbf=%lld migrate=%d)\n",
                    static_cast<long long>(mtbf), migrate ? 1 : 0);
        return 1;
      }
      if (!migrate) {
        goodput_off = fr.summary.goodput_tok_s;
        if (fr.migrations_started != 0 || fr.migrated_rows != 0) {
          std::puts("\nFAIL: migration-off cell moved KV");
          return 1;
        }
        if (fr.summary.recomputed_tokens <= 0) {
          std::printf("\nFAIL: migration-off drain recomputed nothing "
                      "(mtbf=%lld) — the baseline paid no re-prefill bill\n",
                      static_cast<long long>(mtbf));
          return 1;
        }
      } else {
        if (fr.migrated_rows <= 0) {
          std::printf("\nFAIL: migration-on cell (mtbf=%lld) saved no KV "
                      "rows\n",
                      static_cast<long long>(mtbf));
          return 1;
        }
        if (fr.summary.goodput_tok_s < goodput_off) {
          std::printf("\nFAIL: migration-on goodput %.1f tok/s fell below "
                      "the re-prefill baseline %.1f (mtbf=%lld)\n",
                      fr.summary.goodput_tok_s, goodput_off,
                      static_cast<long long>(mtbf));
          return 1;
        }
      }
      migration_table.add_row(
          {std::to_string(mtbf) + " it", migrate ? "on" : "off",
           core::TextTable::num(fr.summary.goodput_tok_s, 1),
           core::TextTable::num(fr.summary.availability * 100.0, 1) + "%",
           std::to_string(fr.migrated_rows),
           std::to_string(fr.summary.recomputed_tokens),
           std::to_string(fr.summary.wasted_tokens),
           core::TextTable::num(fr.summary.ttft_p99_ms, 1) + " ms"});
    }
  }
  std::puts("\nLive migration vs preempt-and-re-prefill draining");
  std::puts("(24 requests, 3 replicas, drain replica 0 at 150 ms,");
  std::puts("degradation-heavy faults, no chip deaths):");
  std::fputs(migration_table.to_string().c_str(), stdout);
  std::puts("\nMigration-on rows ride the fabric instead of re-prefilling:");
  std::puts("the recompute bill drops to zero and goodput holds at or above");
  std::puts("the preempt baseline in every cell.");

  const std::size_t saved = graph::save_memo_to_env_file();
  if (saved > 0) {
    std::printf("timing memo: saved %zu entries to %s\n", saved,
                graph::memo_file_from_env().c_str());
  }
  return 0;
}
