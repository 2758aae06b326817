// gaudisim benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference paper_reference.csv [--trace-out FILE]
//
// Runs one workload in this process: several cold set-ups (each clears the
// process-wide timing memo, generates inputs, constructs, and runs one cold
// pass), then warm passes for S seconds, then the output checks.  The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.  --trace 0 reports every end-to-end
// metric; --trace 1 alternates traced and untraced passes and reports every
// per-layer metric (span self times plus counters) and the tracing
// overhead, and writes the spans as Chrome-trace JSON to FILE.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "graph/timing_memo.hpp"
#include "graph/validate.hpp"
#include "harness.hpp"
#include "sim/env.hpp"
#include "sim/fault.hpp"
#include "sim/numerics.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
constexpr int kMinPasses = 4;

enum : unsigned {
  kServeLadder = 1u << 0,
  kFleetChaos = 1u << 1,
  kPaperSweep = 1u << 2,
  kTrainFunctional = 1u << 3,
  kServing = kServeLadder | kFleetChaos,
  kAll = 0xFu,
};

struct WorkloadDef {
  const char* name;
  unsigned bit;
};
constexpr WorkloadDef kWorkloads[] = {
    {"serve-ladder", kServeLadder},
    {"fleet-chaos", kFleetChaos},
    {"paper-sweep", kPaperSweep},
    {"train-functional", kTrainFunctional},
};

/// A metric, and the workloads that must produce it.
struct MetricDef {
  std::string name;
  std::string unit;
  unsigned owners;
};

/// End-to-end metrics.  A workload that does not exercise a metric reports
/// it as 1 (see README.md): every run carries every metric, and a value
/// that no code path can move.
std::vector<MetricDef> end_to_end_table() {
  return {
      {"host_wall_s", "s", kAll},
      {"setup_s", "s", kAll},
      {"host_peak_rss_mb", "MiB", kAll},
      {"sim_ttft_p50_ms", "sim_ms", kServing},
      {"sim_ttft_p99_ms", "sim_ms", kServing},
      {"sim_tpot_p50_ms", "sim_ms", kServing},
      {"sim_tpot_p99_ms", "sim_ms", kServing},
      {"sim_goodput_tok_s", "tok/sim_s", kServing},
      {"sim_availability_pct", "%", kServing},
      {"sim_slo_capacity_rps", "req/sim_s", kServeLadder},
      {"sim_step_ms", "sim_ms", kPaperSweep},
      {"paper_err_pct", "%", kPaperSweep},
  };
}

/// Per-layer metrics, named after the modules.  A workload that does not
/// exercise a layer reports 0 for it (flat).
std::vector<MetricDef> per_layer_table() {
  std::vector<MetricDef> t;
  const auto add = [&](const std::string& name, const char* unit,
                       unsigned owners) { t.push_back({name, unit, owners}); };
  const unsigned SL = kServeLadder, FC = kFleetChaos, PS = kPaperSweep,
                 TF = kTrainFunctional;

  add("serve.scheduler.host_s", "s", SL);
  add("serve.scheduler.iterations", "count", SL);
  add("serve.scheduler.host_us_per_iter", "us", SL);
  add("serve.scheduler.decode_steps", "count", SL);
  add("serve.scheduler.prefill_chunks", "count", SL);
  add("serve.scheduler.batch_fill_pct", "%", SL);
  add("serve.kv_cache.peak_pct", "%", SL);
  add("serve.kv_cache.frag_tokens_peak", "count", SL);
  add("serve.kv_cache.preemptions", "count", SL);
  add("serve.kv_cache.useful_token_pct", "%", SL);
  for (int r = 1; r <= 4; ++r) {
    const std::string p = "serve.ladder.rung" + std::to_string(r) + ".";
    add(p + "offered", "count", SL);
    add(p + "failed", "count", SL);
    add(p + "ttft_p99_ms", "sim_ms", SL);
    add(p + "tpot_p50_ms", "sim_ms", SL);
    add(p + "slo_pct", "%", SL);
  }
  add("serve.metrics.report_s", "s", SL | FC);
  add("serve.metrics.itl_p99_ms", "sim_ms", SL | FC);
  for (const char* n : {"host_s", "replica_iterations", "host_us_per_iter",
                        "failovers", "chip_failures", "hedges", "hedge_win_pct",
                        "breaker_opens", "evac_requeues", "useful_token_pct",
                        "dispatch_spread_pct"}) {
    const std::string s = n;
    const char* unit = s == "host_s"                 ? "s"
                       : s == "host_us_per_iter"     ? "us"
                       : s.find("_pct") != s.npos    ? "%"
                                                     : "count";
    add("serve.cluster." + s, unit, FC);
  }
  add("serve.migration.started", "count", FC);
  add("serve.migration.completed_pct", "%", FC);
  add("serve.migration.aborted", "count", FC);
  add("serve.migration.rows", "count", FC);
  add("serve.migration.blocks", "count", FC);
  add("serve.migration.drain_done", "count", FC);
  add("scaleout.roce.wire_ms", "sim_ms", FC);
  add("scaleout.roce.link_retries", "count", FC);
  add("nn.decode.compiled_steps", "count", SL);
  add("graph.timing_memo.misses_setup", "count", SL | FC);
  add("graph.timing_memo.hits_setup", "count", SL | FC);
  add("graph.timing_memo.hits_timed", "count", SL | FC);
  add("graph.timing_memo.entries", "count", SL | FC);
  add("nn.models.build_s", "s", PS);
  add("nn.models.nodes", "count", PS);
  add("graph.compiler.compile_s", "s", PS);
  add("graph.runtime.run_s", "s", PS);
  add("graph.runtime.host_us_per_node", "us", PS);
  add("graph.runtime.trace_events", "count", PS);
  add("graph.scheduler.schedule_s", "s", PS);
  add("tpc.cluster.kernel_s", "s", PS);
  add("mme.cost_s", "s", PS);
  add("core.analysis.summarize_s", "s", PS);
  for (const char* engine : {"mme", "tpc"}) {
    for (const char* size : {"128", "256", "512", "1024", "2048"}) {
      add(std::string(engine) + ".table2.tflops.s" + size, "TFLOPS", PS);
    }
  }
  add("mme.table2_fit_err_pct", "%", PS);
  add("tpc.table2_fit_err_pct", "%", PS);
  add("nn.attention.fig4_softmax_ms", "sim_ms", PS);
  add("nn.attention.fig5_linear_ms", "sim_ms", PS);
  add("nn.attention.fig5_speedup", "x", PS);
  add("nn.attention.fig6_performer_ms", "sim_ms", PS);
  add("nn.attention.fig6_speedup", "x", PS);
  for (const char* act : {"relu", "leaky_relu", "gelu", "glu"}) {
    add(std::string("nn.attention.fig7_") + act + "_ms", "sim_ms", PS);
  }
  for (const char* fig : {"4", "8", "9"}) {
    add(std::string("mme.fig") + fig + ".idle_pct", "%", PS);
  }
  add("mme.fig4.gaps", "count", PS);
  add("tpc.fig4.softmax_pct", "%", PS);
  add("memory.fig4.hbm_peak_gb", "GiB", PS);
  add("memory.fig8.hbm_peak_gb", "GiB", PS);
  for (const char* fig : {"6", "8", "9"}) {
    add(std::string("graph.scheduler.fig") + fig + "_overlap_gain_pct", "%",
        PS);
  }
  add("nn.models.gpt2_step_ms", "sim_ms", PS);
  add("nn.models.bert_step_ms", "sim_ms", PS);
  for (const char* group : {"embed", "layer0", "layer1", "head"}) {
    for (const char* engine : {"mme", "tpc", "dma"}) {
      add(std::string("nn.models.gpt2.") + group + "." + engine + "_ms",
          "sim_ms", PS);
    }
  }
  add("nn.train.host_ms_per_step", "ms", TF);
  add("nn.train.gflop_per_step", "GFLOP", TF);
  add("nn.train.gbyte_per_step", "GB", TF);
  add("nn.train.host_gflops", "GFLOP/s", TF);
  add("nn.train.skipped_steps", "count", TF);
  add("graph.runtime.functional_run_s", "s", TF);
  add("bench.trace_overhead_pct", "%", kAll);
  return t;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string reference;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --reference FILE [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--reference") {
      a.reference = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  return a;
}

/// Clears every environment knob the simulator reads, so an inherited
/// value cannot change a measured run (an inherited GAUDI_MEMO_FILE would
/// warm the cold pass), and prints what the library resolves.
void pin_environment() {
  for (const char* var : {"GAUDI_TIMING_ONLY", "GAUDI_VALIDATE", "GAUDI_FAULTS",
                          "GAUDI_FAULT_SEED", "GAUDI_GUARD",
                          "GAUDI_MEMO_FILE"}) {
    unsetenv(var);
  }
  const std::string memo = gaudi::graph::memo_file_from_env();
  std::printf(
      "env: GAUDI_TIMING_ONLY=%s GAUDI_VALIDATE=%s GAUDI_FAULTS=%s "
      "GAUDI_FAULT_SEED=%#llx GAUDI_GUARD=%s GAUDI_MEMO_FILE=%s\n",
      gaudi::graph::timing_only_from_env() ? "on" : "off",
      gaudi::graph::validation_requested_from_env() ? "on" : "off",
      gaudi::sim::fault_injector_from_env() != nullptr ? "on" : "off",
      static_cast<unsigned long long>(
          gaudi::sim::env_u64("GAUDI_FAULT_SEED", 0xFA517ull)),
      gaudi::sim::numerics_policy_name(gaudi::sim::numerics_policy_from_env()),
      memo.empty() ? "none" : memo.c_str());
}

/// Peak resident set of this process or of any child it waited for (a
/// workload may run its passes in child processes).
double peak_rss_mib() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

void print_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::fputs(buf, stdout);
}

int run(const Args& args) {
  const auto process_start = Clock::now();
  unsigned bit = 0;
  for (const WorkloadDef& w : kWorkloads) {
    if (args.workload == w.name) bit = w.bit;
  }
  if (bit == 0) usage("unknown workload '" + args.workload + "'");
  if (args.seconds <= 0) usage("--seconds must be positive");
  pin_environment();

  const auto make = [&]() -> WorkloadPtr {
    switch (bit) {
      case kServeLadder: return make_serve_ladder(args.seed);
      case kFleetChaos: return make_fleet_chaos(args.seed);
      case kPaperSweep: return make_paper_sweep(args.seed, args.reference);
      default: return make_train_functional(args.seed);
    }
  };

  // Set-up, several times: the first from process start, each from a
  // cleared timing memo through the cold pass.
  tracer().set_enabled(args.trace);
  Metrics cold;
  std::vector<double> setups;
  WorkloadPtr w;
  for (int k = 0; k < kSetups; ++k) {
    w.reset();
    const auto t0 = k == 0 ? process_start : Clock::now();
    gaudi::graph::TimingMemo::global().clear();
    w = make();
    if (w->pass("setup" + std::to_string(k))) {
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    w->after_cold_pass(cold);
  }

  // Warm passes for the measured seconds; the traced run alternates traced
  // and untraced passes so both see the same machine state.
  std::vector<double> plain, traced;
  std::vector<std::map<std::string, double>> traced_self;
  const auto begin = Clock::now();
  for (int i = 0; seconds_between(begin, Clock::now()) < args.seconds ||
                  i < kMinPasses;
       ++i) {
    const bool trace_this = args.trace && i % 2 == 0;
    tracer().set_enabled(trace_this);
    const std::size_t first_span = tracer().spans().size();
    const auto t0 = Clock::now();
    const bool completed = w->pass("pass" + std::to_string(i));
    const double dt = seconds_between(t0, Clock::now());
    tracer().set_enabled(false);
    if (!completed) continue;
    if (trace_this) {
      traced.push_back(dt);
      traced_self.push_back(tracer().self_seconds(first_span));
    } else {
      plain.push_back(dt);
    }
  }

  CheckLog log;
  w->check(log);

  Metrics m;
  const std::vector<MetricDef> table =
      args.trace ? per_layer_table() : end_to_end_table();
  if (!args.trace) {
    m.set("host_wall_s", median(plain), "s");
    m.set("setup_s", median(setups), "s");
    m.set("host_peak_rss_mb", peak_rss_mib(), "MiB");
    w->end_to_end(m);
  } else {
    std::map<std::string, std::vector<double>> by_name;
    for (const auto& pass_self : traced_self) {
      for (const auto& [name, s] : pass_self) by_name[name].push_back(s);
    }
    std::map<std::string, double> self_median;
    for (const auto& [name, v] : by_name) self_median[name] = median(v);
    for (const Metric& c : cold.all()) m.set(c.name, c.value, c.unit);
    w->per_layer(m, self_median);
    m.set("bench.trace_overhead_pct",
          100.0 * (median(traced) - median(plain)) / median(plain), "%");
    if (!args.trace_out.empty()) tracer().write_chrome_json(args.trace_out);
  }

  // Every metric the table assigns to this workload must be present and
  // finite; the rest are filled (1 for end-to-end, 0 for per-layer).
  Metrics out;
  for (const MetricDef& d : table) {
    if (d.owners & bit) {
      const Metric* it = m.find(d.name);
      if (it == nullptr || !std::isfinite(it->value) || it->unit != d.unit) {
        std::fprintf(stderr, "perfbench: %s did not produce metric %s [%s]\n",
                     args.workload.c_str(), d.name.c_str(), d.unit.c_str());
        return 1;
      }
      out.set(d.name, it->value, d.unit);
    } else {
      out.set(d.name, args.trace ? 0.0 : 1.0, d.unit);
    }
  }

  std::printf("workload %s seed %llu: set-ups", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  for (const double s : setups) std::printf(" %.3fs", s);
  std::printf("; %zu untraced and %zu traced passes", plain.size(),
              traced.size());
  if (!plain.empty()) {
    std::printf(", untraced min %.3fs max %.3fs",
                *std::min_element(plain.begin(), plain.end()),
                *std::max_element(plain.begin(), plain.end()));
  }
  std::printf("\n");
  std::printf("checks: %lld run, %zu failed; operations: %lld attempted, "
              "%lld failed\n",
              static_cast<long long>(log.checks), log.failures.size(),
              static_cast<long long>(log.attempted),
              static_cast<long long>(log.failed));
  for (const std::string& f : log.failures) std::printf("FAILED: %s\n", f.c_str());
  for (const Metric& x : out.all()) {
    std::printf("  %-44s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              log.failures.empty() ? "true" : "false",
              static_cast<long long>(log.attempted),
              static_cast<long long>(log.failed));
  bool first = true;
  for (const Metric& x : out.all()) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", x.name.c_str());
    print_number(x.value);
    std::printf(", \"unit\": \"%s\"}", x.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
