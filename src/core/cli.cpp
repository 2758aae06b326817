#include "core/cli.hpp"

#include <fstream>
#include <optional>
#include <sstream>

#include "core/advisor.hpp"
#include "core/batch.hpp"
#include "core/html_report.hpp"
#include "core/options.hpp"
#include "core/table.hpp"
#include "graph/printer.hpp"
#include "graph/runtime.hpp"
#include "graph/timing_memo.hpp"
#include "nn/optimizer.hpp"
#include "nn/train.hpp"
#include "scaleout/checkpoint.hpp"
#include "sim/error.hpp"
#include "sim/numerics.hpp"

namespace gaudi::core {

namespace {

constexpr const char* kUsage = R"(gaudisim — Gaudi-class accelerator simulator (SC-W 2023 reproduction)

usage: gaudisim_cli <command> [options]

Boolean options (--fuse, --faults, --migrate, --breaker, ...) take on|1 or
off|0; a bare flag means on.

commands:
  op-mapping                     print the operation->engine table (Table 1)
  mme-vs-tpc [--sizes a,b,c]     MME vs TPC batched matmul (Table 2)
  profile-layer [options]        profile one Transformer layer (Figs 4-7)
      --attention softmax|linear|performer|linformer|local   (softmax)
      --feature-map elu|relu|leaky_relu|gelu|glu             (elu)
      --seq N --batch B --heads H --head-dim D --ffn F
      --policy barrier|overlap   scheduler policy             (barrier)
      --fuse                     enable element-wise fusion
      --validate                 run the trace invariant validator
      --compile-stats            print per-pass compiler timings and plans
      --trace FILE               write a Chrome trace
      --html FILE                write a self-contained HTML report
      --seed N                   execution seed               (0x6A0D1)
      --guard off|warn|trap      numerics guard policy (default: GAUDI_GUARD)
      --faults                   inject deterministic hardware faults
      --fault-seed N --mtbf N    fault seed / MTBF in steps (stress profile
                                 when --mtbf is omitted)
      --sdc-rate R               per-node HBM bit-flip probability (0)
  profile-model [options]        profile an LLM training step (Figs 8-9)
      --arch gpt2|bert           (gpt2)
      --seq N --batch B --layers L
      --optimizer none|sgd|sgd_momentum|adam                  (none)
      --policy barrier|overlap --fuse --validate --trace FILE --html FILE
      --compile-stats            print per-pass compiler timings and plans
      --dot FILE                 write the graph as Graphviz DOT
      --seed N --guard P --faults --fault-seed N --mtbf N --sdc-rate R
  train [options]                run a bf16 training loop (functional) with
                                 dynamic loss scaling and the numerics guard
      --arch gpt2|bert           tiny config of the arch      (gpt2)
      --steps N                  training steps               (8)
      --optimizer sgd|sgd_momentum|adam                       (sgd)
      --no-loss-scaling          differentiate the raw loss; apply every step
      --no-bf16-grads            keep gradients in f32
      --init-scale S             starting loss scale          (65536)
      --growth-interval N        clean steps before scale-up  (50)
      --corrupt-step N           overwrite a gradient element with NaN at
                                 step N (deterministic SDC stand-in)
      --guard off|warn|trap      numerics guard policy (default: GAUDI_GUARD)
      --sdc-rate R --fault-seed N   seeded HBM bit flips in live buffers
      --seed N                   model/data seed              (0x7A11)
      --checkpoint-dir DIR       write crash-consistent snapshots under DIR
      --checkpoint-every N       snapshot every N steps       (1)
      --resume                   resume from the newest valid snapshot in
                                 DIR (empty or missing DIR: fresh start)
      --resample-data            draw a fresh token batch per step; the
                                 data-order cursor rides in the snapshot
  train-resilient [options]      simulate an N-step run under faults with
                                 checkpoint/rollback recovery
      --steps N                  useful steps to complete     (1000)
      --step-ms T                nominal step time in ms      (300)
      --chips P                  chips in the box             (8)
      --mtbf N                   mean steps between failures  (200)
      --recovery none|fixed|young-daly                        (young-daly)
      --interval N               checkpoint interval for 'fixed'
      --fault-seed N             fault schedule seed          (0xFA517)
  serve [options]                multi-tenant serving: continuous batching
                                 over a paged KV cache, SLO tail metrics
      --model gpt2|tiny          served model                 (gpt2)
      --rate R                   Poisson arrival rate, req/s  (8)
      --requests N               requests in the stream       (32)
      --prompt-min N --prompt-max N    prompt length range    (64..192)
      --output-min N --output-max N    output length range    (16..64)
      --priorities N             priority levels, drawn uniformly (1)
      --deadline-ms T            per-request completion SLO; 0 = none
      --arrivals FILE            replay a trace instead of Poisson
                                 (arrival_ms,prompt,output[,priority
                                 [,deadline_ms]] per line, # comments)
      --max-batch N              concurrent batch slots       (8)
      --prefill-chunk N          prompt tokens prefilled per iteration (128)
      --ctx-bucket N             context-length bucket for compiled steps (64)
      --block-tokens N           KV block size in tokens      (64)
      --kv-mb N                  KV pool budget in MiB        (64)
      --seed N                   workload seed                (0x5E21E)
      --faults                   inject chip failures / stalls / stragglers
      --fault-seed N             fault schedule seed          (0xFA517)
      --mtbf N                   mean iterations between failures; absent
                                 or 0 with --faults = stress rates; no
                                 effect without --faults
      --retry-max N              chip-failure retries before kFailed (3)
      --watchdog-ms T            abort a request stalled this long; 0 = off
      --shed-queue-depth N       shed lowest-priority arrivals past this
                                 backlog; 0 = off
      --shed-free-blocks N       shed arrivals when free KV blocks dip
                                 below N; 0 = off
      --retry-backoff-ms T       base re-queue delay after a chip failure (5)
      --retry-backoff-max-ms T   ceiling on the doubled backoff     (5000)
      --timing-only on|off       share step costs process-wide and via
                                 GAUDI_MEMO_FILE (default:
                                 GAUDI_TIMING_ONLY; reports are identical)
  serve-cluster [options]        route one stream across N serving replicas:
                                 failover with KV re-prefill, hedged
                                 requests, per-replica circuit breakers,
                                 live KV migration and graceful draining
                                 (accepts every serve option above;
                                 --mtbf is per replica)
      --replicas N               serving replicas               (2)
      --lb P                     round-robin|jsq|least-kv       (round-robin)
      --heartbeat-ms T           replica heartbeat period       (2)
      --suspicion-ms T           silence before a replica is marked down (10)
      --hedge-ms T               duplicate a request with no first token
                                 after T; 0 = off
      --breaker on|off           per-replica circuit breaker    (on)
      --breaker-window N         sliding outcome window         (8)
      --breaker-min N            samples before the breaker may open (4)
      --breaker-threshold R      failure fraction that opens    (0.5)
      --breaker-cooldown-ms T    open -> half-open probe delay  (100)
      --migrate                  live KV migration: evacuate degraded or
                                 draining replicas by streaming paged KV
                                 blocks over the fabric (no re-prefill)
      --migration-chunk-blocks N paged KV blocks per migration chunk (4)
      --drain-replica R          drain replica R (needs --replicas >= 2):
                                 stop new dispatch, move its work
                                 elsewhere, finish with no failures
      --drain-at-ms T            simulated instant the drain starts  (0)
      --health-window-ms T       sliding window for the replica health
                                 score                          (50)
      --degraded-after N         straggler/HBM-stall events inside the
                                 window before a replica is degraded (3)
  batch FILE [options]           run a declarative experiment grid: FILE
                                 sweeps {command, axes, seeds, repeats}
                                 (see examples/serving_sweep.cfg); a cell
                                 takes its command's options above as
                                 `set`/`sweep` keys, checked the same way
                                 (seed and timing-only are directives);
                                 replicas run in parallel, stats reduce
                                 to n/mean/p50/p99 per cell
      --csv FILE                 write the byte-deterministic CSV
      --threads N                replica worker threads; 0 = the CPUs this
                                 process may use, 1 = serial on the caller
                                 (same output either way)
      --timing-only on|off       default for serve experiments that do not
                                 choose
  help                           this text

Setting GAUDI_VALIDATE=1 in the environment validates every scheduled
trace, same as passing --validate.  GAUDI_FAULTS=1 injects faults into
every scheduled trace (seeded by GAUDI_FAULT_SEED), same as --faults.
)";

/// Parses --guard into an explicit policy override; absent defers to the
/// GAUDI_GUARD environment variable (a bare --guard flag means warn).
std::optional<sim::NumericsPolicy> parse_guard(const ArgParser& args) {
  const std::string s = args.get("guard", "\x01");
  if (s == "\x01") return std::nullopt;
  if (s == "off") return sim::NumericsPolicy::kOff;
  if (s.empty() || s == "warn") return sim::NumericsPolicy::kWarn;
  if (s == "trap") return sim::NumericsPolicy::kTrap;
  throw sim::InvalidArgument("unknown guard policy: " + s +
                             " (expected off|warn|trap)");
}

/// The fault options of an 8-chip training box, plus --sdc-rate, which
/// layers HBM bit flips on top (or alone, without --faults).
sim::FaultInjector parse_fault_injector(const ArgParser& args) {
  FaultOptions f = parse_fault_options(args, /*chips=*/8);
  double& sdc_rate = f.profile.sdc_bit_flip_rate;
  sdc_rate = args.get_f64("sdc-rate", 0.0);
  GAUDI_CHECK(sdc_rate >= 0.0 && sdc_rate <= 1.0,
              "--sdc-rate expects a probability in [0, 1]");
  return sim::FaultInjector{f.seed, f.profile};
}

/// How both profile commands compile, run and report their graph.  These
/// options are CLI-only: a batch cell keeps summary metrics.
struct ProfileRun {
  bool fuse = false;
  bool compile_stats = false;
  graph::RunOptions run;
  sim::FaultInjector faults;
  std::string trace_path;
  std::string html_path;
};

ProfileRun parse_profile_run(const ArgParser& args) {
  ProfileRun p;
  p.fuse = args.get_bool("fuse", false);
  p.compile_stats = args.get_bool("compile-stats", false);
  p.run.mode = tpc::ExecMode::kTiming;
  p.run.validate = args.get_bool("validate", false);
  p.run.seed = static_cast<std::uint64_t>(args.get_int("seed", 0x6A0D1));
  p.run.guard = parse_guard(args);
  p.faults = parse_fault_injector(args);
  p.trace_path = args.get("trace", "");
  p.html_path = args.get("html", "");
  return p;
}

/// Compiles `g`, runs it in timing mode and prints the profile; `banner`
/// lands between the compiler statistics and the profile.
void profile_graph(std::ostream& out, const graph::Graph& g,
                   graph::SchedulePolicy policy, const ProfileRun& p,
                   const std::string& title, const std::string& banner = "") {
  graph::Runtime rt(sim::ChipConfig::hls1());
  graph::CompileOptions copts;
  copts.fuse_elementwise = p.fuse;
  const graph::CompiledGraph compiled = rt.compile(g, copts);
  if (p.compile_stats) out << compiled.stats.to_string();
  out << banner;
  graph::RunOptions opts = p.run;
  opts.policy = policy;
  if (p.faults.enabled()) opts.faults = &p.faults;
  const graph::ProfileResult result = rt.run(compiled, {}, opts);

  const TraceSummary summary = summarize(result.trace);
  out << to_report(summary, title);
  out << result.trace.ascii_timeline(90);
  out << "peak HBM: "
      << TextTable::num(static_cast<double>(result.hbm_peak_bytes) / (1 << 30), 2)
      << " GB of 32 GB\n";
  if (result.guard_policy != sim::NumericsPolicy::kOff) {
    out << "guard: " << sim::numerics_policy_name(result.guard_policy)
        << ", swept " << result.numerics.count << " elements, "
        << result.sdc_injections.size() << " bit flips injected, "
        << result.anomalies.size() << " anomalies\n";
    if (!result.anomalies.empty()) {
      out << result.anomalies.front().report << "\n";
    }
  }
  AdvisorInput in;
  in.summary = summary;
  out << format_findings(advise(in));
  if (!p.trace_path.empty()) {
    result.trace.write_chrome_json(p.trace_path);
    out << "chrome trace written to " << p.trace_path << "\n";
  }
  if (!p.html_path.empty()) {
    write_html_report(p.html_path, title, result.trace,
                      sim::ChipConfig::hls1());
    out << "HTML report written to " << p.html_path << "\n";
  }
}

int cmd_op_mapping(std::ostream& out) {
  out << format_op_mapping(run_op_mapping_probe());
  return 0;
}

int cmd_mme_vs_tpc(ArgParser& args, std::ostream& out) {
  std::vector<std::int64_t> sizes;
  std::stringstream ss(args.get("sizes", "128,256,512,1024,2048"));
  for (std::string part; std::getline(ss, part, ',');) {
    sizes.push_back(parse_i64(part, "option --sizes"));
  }
  args.check_unused();
  out << format_mme_vs_tpc(run_mme_vs_tpc(sim::ChipConfig::hls1(), sizes));
  return 0;
}

int cmd_profile_layer(ArgParser& args, std::ostream& out) {
  const LayerExperiment exp = parse_layer_experiment(args);
  const ProfileRun run = parse_profile_run(args);
  args.check_unused();

  graph::Graph g;
  build_layer_experiment(g, exp);
  profile_graph(out, g, exp.policy, run,
                std::string("layer / ") +
                    nn::attention_kind_name(exp.attention.kind));
  return 0;
}

int cmd_profile_model(ArgParser& args, std::ostream& out) {
  const ModelExperiment exp = parse_model_experiment(args);
  // `none` profiles the training step without an optimizer update.
  const bool optimize = args.get("optimizer", "none") != "none";
  const std::string dot_path = args.get("dot", "");
  const ProfileRun run = parse_profile_run(args);
  args.check_unused();

  graph::Graph g;
  const nn::LanguageModel model = nn::build_language_model(g, exp.model);
  if (optimize) {
    nn::OptimizerConfig ocfg;
    ocfg.kind = parse_optimizer(args);
    (void)nn::append_optimizer(g, model, ocfg);
  }

  if (!dot_path.empty()) {
    graph::write_dot(g, dot_path);
    out << "graph DOT written to " << dot_path << "\n";
  }

  const char* arch = nn::lm_arch_name(exp.model.arch);
  std::ostringstream banner;
  banner << "model: " << arch << ", " << model.param_count(g) << " parameters, "
         << g.num_nodes() << " graph nodes\n";
  profile_graph(out, g, exp.policy, run,
                std::string(arch) + " training step", banner.str());
  return 0;
}

int cmd_train(ArgParser& args, std::ostream& out) {
  nn::TrainOptions topts = parse_train_options(args);
  topts.run.guard = parse_guard(args);
  const sim::FaultInjector faults = parse_fault_injector(args);
  args.check_unused();
  if (faults.enabled()) topts.run.faults = &faults;

  const nn::TrainResult r = nn::train_language_model(topts);
  out << "train: " << nn::lm_arch_name(topts.model.arch) << " (tiny), "
      << topts.steps << " steps, "
      << nn::optimizer_kind_name(topts.optimizer.kind)
      << ", loss scaling " << (topts.loss_scaling ? "on" : "off")
      << ", bf16 grads " << (topts.bf16_grads ? "on" : "off") << "\n";
  // Resume/checkpoint bookkeeping prints before the step lines so the tail
  // of a resumed run (steps + trailer) is byte-comparable against the same
  // tail of an uninterrupted run.
  if (!r.resume_report.empty()) out << r.resume_report;
  if (!topts.checkpoint_dir.empty()) {
    out << "checkpoints: " << r.checkpoints_saved << " saved under "
        << topts.checkpoint_dir << "\n";
  }
  const std::size_t base =
      r.resumed_from_step > 0 ? static_cast<std::size_t>(r.resumed_from_step)
                              : 0;
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    const nn::TrainStepInfo& s = r.steps[i];
    out << "  step " << base + i << ": loss " << TextTable::num(s.loss, 4)
        << "  scale " << TextTable::num(s.scale, 0) << "  "
        << (s.applied ? "applied" : "skipped (overflow)") << "\n";
  }
  out << "skipped steps: " << r.skipped_steps
      << "   final scale: " << TextTable::num(r.final_scale, 0)
      << "   sdc bit flips: " << r.sdc_injections
      << "   guard anomalies: " << r.anomalies << "\n";
  out << "final loss: " << TextTable::num(r.final_loss, 4) << " ("
      << (r.finite ? "finite" : "NOT finite") << ")\n";
  return r.finite ? 0 : 1;
}

int cmd_train_resilient(ArgParser& args, std::ostream& out) {
  const ResilientTrainingOptions o = parse_resilient_training(args);
  args.check_unused();

  const scaleout::TrainingRunConfig& cfg = o.config;
  const scaleout::TrainingRunReport rep =
      scaleout::resilient_training_run(cfg, o.faults);

  const sim::SimTime save = scaleout::checkpoint_save_time(cfg.checkpoint);
  out << "resilient training: " << cfg.steps << " steps x "
      << sim::to_string(cfg.step_time) << " on " << cfg.chips
      << " chips, MTBF " << cfg.mtbf_steps << " steps\n";
  out << "policy " << scaleout::recovery_policy_name(cfg.policy);
  if (rep.interval > 0) {
    out << " (checkpoint every " << rep.interval << " steps; Young/Daly predicts "
        << scaleout::young_daly_interval_steps(cfg.step_time, save,
                                               cfg.mtbf_steps)
        << ")";
  }
  out << "\n";
  out << "failures: " << rep.failures << "   recomputed steps: "
      << rep.recomputed_steps << "   checkpoints: " << rep.checkpoints << "\n";
  out << "checkpoint overhead: " << sim::to_string(rep.checkpoint_time)
      << "   recovery: " << sim::to_string(rep.restore_time)
      << "   recompute: " << sim::to_string(rep.recompute_time)
      << "   stalls: " << sim::to_string(rep.stall_time) << "\n";
  out << "total: " << sim::to_string(rep.total_time) << " (ideal "
      << sim::to_string(rep.compute_time) << ")   goodput: "
      << TextTable::num(rep.goodput * 100.0, 1) << "%\n";
  return 0;
}

std::string stream_banner(const StreamOptions& s, std::size_t n) {
  std::ostringstream os;
  os << n << " requests ("
     << (s.arrivals.empty()
             ? "poisson @ " + TextTable::num(s.stream.arrival_rate_rps, 1) +
                   " req/s"
             : "trace " + s.arrivals)
     << ")";
  return os.str();
}

int cmd_serve(ArgParser& args, std::ostream& out) {
  const ServeOptions o = parse_serve_options(args);
  args.check_unused();

  const std::vector<serve::Request> stream = o.requests();
  out << "serve: " << stream_banner(o, stream.size()) << ", batch "
      << o.config.max_batch << ", prefill chunk " << o.config.prefill_chunk
      << ", kv " << (o.config.kv_budget_bytes >> 20) << " MiB in "
      << o.config.block_tokens << "-token blocks\n";

  graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ContinuousBatchScheduler sched(rt, o.config);
  out << sched.run(stream).to_report();
  graph::save_memo_to_env_file();
  return 0;
}

int cmd_serve_cluster(ArgParser& args, std::ostream& out) {
  const ServeClusterOptions o = parse_serve_cluster_options(args);
  args.check_unused();

  const std::vector<serve::Request> stream = o.requests();
  out << "serve-cluster: " << stream_banner(o, stream.size()) << " x "
      << o.config.replicas << " replicas ("
      << serve::load_balance_policy_name(o.config.policy) << "), batch "
      << o.config.replica.max_batch << ", kv "
      << (o.config.replica.kv_budget_bytes >> 20) << " MiB/replica\n";

  graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ClusterRouter router(rt, o.config);
  out << router.run(stream).to_report();
  graph::save_memo_to_env_file();
  return 0;
}

int cmd_batch(const std::string& config_path, ArgParser& args,
              std::ostream& out) {
  const std::string csv_path = args.get("csv", "");
  const std::int64_t threads = args.get_int("threads", 0);
  GAUDI_CHECK(threads >= 0, "--threads expects a non-negative count");
  BatchOptions bopts;
  bopts.threads = static_cast<std::size_t>(threads);
  bopts.timing_only = args.get_bool("timing-only");
  args.check_unused();

  const BatchConfig cfg = load_batch_config(config_path);
  const BatchRunResult r = run_batch(cfg, bopts);
  out << "batch: " << cfg.experiments.size() << " experiment(s), " << r.cells
      << " cell(s), " << r.runs << " run(s)\n";
  out << r.table;
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path, std::ios::binary);
    GAUDI_CHECK(static_cast<bool>(csv), "cannot write CSV to " + csv_path);
    csv << r.csv;
    out << "csv written to " << csv_path << "\n";
  }
  graph::save_memo_to_env_file();
  return 0;
}

}  // namespace

std::int64_t parse_i64(const std::string& text, const std::string& what) {
  std::size_t pos = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(text, &pos);
  } catch (const std::exception&) {
    throw sim::InvalidArgument(what + " expects an integer, got '" + text +
                               "'");
  }
  // stoll stops at the first non-digit; "12abc" must not silently become 12.
  if (pos != text.size()) {
    throw sim::InvalidArgument(what + " expects an integer, got '" + text +
                               "' (trailing '" + text.substr(pos) + "')");
  }
  return value;
}

ArgParser ArgParser::from_pairs(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  ArgParser p;
  p.kv_.insert(pairs.begin(), pairs.end());
  return p;
}

ArgParser::ArgParser(std::vector<std::string> args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    GAUDI_CHECK(a.size() > 2 && a.rfind("--", 0) == 0,
                "expected an option starting with --, got '" + a + "'");
    const std::string key = a.substr(2);
    if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      kv_[key] = args[++i];
    } else {
      kv_[key] = "";  // boolean flag
    }
  }
}

bool ArgParser::has(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return false;
  read_[key] = true;
  return true;
}

std::string ArgParser::get(const std::string& key, const std::string& fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  read_[key] = true;
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& key, std::int64_t fallback) const {
  return has(key) ? parse_i64(get(key, ""), "option --" + key) : fallback;
}

double ArgParser::get_f64(const std::string& key, double fallback) const {
  if (!has(key)) return fallback;
  const std::string text = get(key, "");
  const std::string what =
      "option --" + key + " expects a number, got '" + text;
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw sim::InvalidArgument(what + "'");
  }
  if (pos != text.size()) {
    throw sim::InvalidArgument(what + "' (trailing '" + text.substr(pos) +
                               "')");
  }
  return value;
}

std::optional<bool> ArgParser::get_bool(const std::string& key) const {
  if (!has(key)) return std::nullopt;
  const std::string v = get(key, "");
  if (v.empty() || v == "on" || v == "1") return true;
  if (v == "off" || v == "0") return false;
  throw sim::InvalidArgument("option --" + key +
                             " expects on|off|1|0 (a bare flag means on), "
                             "got '" + v + "'");
}

bool ArgParser::get_bool(const std::string& key, bool fallback) const {
  return get_bool(key).value_or(fallback);
}

std::size_t ArgParser::get_choice(const std::string& key,
                                  const std::vector<std::string>& names) const {
  const std::string value = get(key, names.front());
  std::string spellings;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (value == names[i]) return i;
    spellings += (i > 0 ? "|" : "") + names[i];
  }
  throw sim::InvalidArgument("option --" + key + " expects " + spellings +
                             ", got '" + value + "'");
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> result;
  for (const auto& [key, value] : kv_) {
    if (!read_.count(key)) result.push_back(key);
  }
  return result;
}

void ArgParser::check_unused() const {
  const std::vector<std::string> keys = unused();
  if (!keys.empty()) {
    throw sim::InvalidArgument("unknown option: --" + keys.front());
  }
}

int run_cli(const std::vector<std::string>& args, std::ostream& out) {
  try {
    if (args.size() < 2 || args[1] == "help" || args[1] == "--help") {
      out << kUsage;
      return args.size() < 2 ? 1 : 0;
    }
    const std::string& command = args[1];
    if (command == "batch") {
      // `batch` takes a positional config path before its options, which
      // the flags-only ArgParser below would reject.
      GAUDI_CHECK(args.size() >= 3 && args[2].rfind("--", 0) != 0,
                  "batch expects a config file path");
      ArgParser bparser(std::vector<std::string>(args.begin() + 3, args.end()));
      return cmd_batch(args[2], bparser, out);
    }
    ArgParser parser(std::vector<std::string>(args.begin() + 2, args.end()));
    if (command == "op-mapping") {
      parser.check_unused();  // takes no options
      return cmd_op_mapping(out);
    }
    if (command == "mme-vs-tpc") return cmd_mme_vs_tpc(parser, out);
    if (command == "profile-layer") return cmd_profile_layer(parser, out);
    if (command == "profile-model") return cmd_profile_model(parser, out);
    if (command == "train") return cmd_train(parser, out);
    if (command == "train-resilient") return cmd_train_resilient(parser, out);
    if (command == "serve") return cmd_serve(parser, out);
    if (command == "serve-cluster") return cmd_serve_cluster(parser, out);
    out << "unknown command: " << command << "\n\n" << kUsage;
    return 1;
  } catch (const sim::Error& e) {
    out << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace gaudi::core
