#include "core/options.hpp"

#include <limits>

#include "sim/error.hpp"

namespace gaudi::core {

namespace {

void require(bool ok, const std::string& message) {
  if (!ok) throw sim::InvalidArgument(message);
}

/// Integer option `key` in [`min`, `max`], `min` being 0 or 1; anything
/// smaller fails as "--key expects a positive <noun>".
std::int64_t bounded(
    const ArgParser& args, const std::string& key, std::int64_t fallback,
    std::int64_t min, const std::string& noun,
    std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  const std::int64_t v = args.get_int(key, fallback);
  require(v >= min, "--" + key + " expects a " +
                        (min > 0 ? "positive " : "non-negative ") + noun +
                        ", got " + std::to_string(v));
  require(v <= max, "--" + key + " expects a " + noun + " of at most " +
                        std::to_string(max) + ", got " + std::to_string(v));
  return v;
}

/// `bounded` for a whole number of milliseconds.  The ceiling (about 11.6
/// days) keeps every time, and the sum of a few, inside SimTime's int64
/// picoseconds.
sim::SimTime millis(const ArgParser& args, const std::string& key,
                    sim::SimTime fallback, std::int64_t min) {
  constexpr std::int64_t kMaxMillis = 1'000'000'000;
  return sim::SimTime::from_ms(static_cast<double>(
      bounded(args, key, static_cast<std::int64_t>(fallback.ms()), min,
              "time", kMaxMillis)));
}

graph::SchedulePolicy parse_policy(const ArgParser& args) {
  return args.get_enum(
      "policy",
      {graph::SchedulePolicy::kBarrier, graph::SchedulePolicy::kOverlap},
      graph::schedule_policy_name);
}

void parse_stream(const ArgParser& args, StreamOptions& o) {
  serve::StreamConfig& s = o.stream;
  s.arrival_rate_rps = args.get_f64("rate", s.arrival_rate_rps);
  s.num_requests = args.get_int("requests", s.num_requests);
  s.prompt.lo = args.get_int("prompt-min", s.prompt.lo);
  s.prompt.hi = args.get_int("prompt-max", s.prompt.hi);
  s.output.lo = args.get_int("output-min", s.output.lo);
  s.output.hi = args.get_int("output-max", s.output.hi);
  s.priority_levels = static_cast<std::int32_t>(
      args.get_int("priorities", s.priority_levels));
  s.deadline = millis(args, "deadline-ms", s.deadline, 0);
  s.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(s.seed)));
  o.arrivals = args.get("arrivals", "");
}

/// Per-replica scheduler options of both serving commands; faults are left
/// to the callers, which wire them differently.
serve::ServeConfig parse_scheduler(const ArgParser& args) {
  constexpr std::size_t kMiB = 1024 * 1024;
  serve::ServeConfig c;
  if (args.get_choice("model", {"gpt2", "tiny"}) == 1) {
    c.model = nn::DecodeConfig::tiny();
  }
  c.max_batch = bounded(args, "max-batch", c.max_batch, 1, "count");
  c.prefill_chunk =
      bounded(args, "prefill-chunk", c.prefill_chunk, 1, "token count");
  c.ctx_bucket = bounded(args, "ctx-bucket", c.ctx_bucket, 1, "token count");
  c.block_tokens =
      bounded(args, "block-tokens", c.block_tokens, 1, "token count");
  c.kv_budget_bytes =
      static_cast<std::size_t>(bounded(
          args, "kv-mb", static_cast<std::int64_t>(c.kv_budget_bytes / kMiB),
          1, "MiB count",
          static_cast<std::int64_t>(std::numeric_limits<std::size_t>::max() /
                                    kMiB))) *
      kMiB;
  c.timing_only = args.get_bool("timing-only");
  c.retry_max = static_cast<std::int32_t>(
      bounded(args, "retry-max", c.retry_max, 0, "count"));
  c.retry_backoff = millis(args, "retry-backoff-ms", c.retry_backoff, 0);
  c.retry_backoff_max =
      millis(args, "retry-backoff-max-ms", c.retry_backoff_max, 1);
  c.watchdog = millis(args, "watchdog-ms", c.watchdog, 0);
  c.shed_queue_depth =
      bounded(args, "shed-queue-depth", c.shed_queue_depth, 0, "depth");
  c.shed_min_free_blocks =
      bounded(args, "shed-free-blocks", c.shed_min_free_blocks, 0, "count");
  return c;
}

}  // namespace

LayerExperiment parse_layer_experiment(const ArgParser& args) {
  using nn::Activation;
  using nn::AttentionKind;
  LayerExperiment exp;
  exp.attention.kind = args.get_enum(
      "attention",
      {AttentionKind::kSoftmax, AttentionKind::kLinear,
       AttentionKind::kPerformer, AttentionKind::kLinformer,
       AttentionKind::kLocal},
      nn::attention_kind_name);
  exp.attention.feature_map = args.get_enum(
      "feature-map",
      {Activation::kElu, Activation::kRelu, Activation::kLeakyRelu,
       Activation::kGelu, Activation::kGlu},
      nn::activation_name);
  exp.seq_len = bounded(args, "seq", exp.seq_len, 1, "token count");
  exp.batch = bounded(args, "batch", exp.batch, 1, "count");
  exp.heads = bounded(args, "heads", exp.heads, 1, "count");
  exp.head_dim = bounded(args, "head-dim", exp.head_dim, 1, "size");
  exp.ffn_dim = bounded(args, "ffn", exp.ffn_dim, 0, "size");
  const std::int64_t window = exp.attention.local_window;
  require(exp.attention.kind != AttentionKind::kLocal ||
              exp.seq_len % window == 0,
          "--seq expects a multiple of the " + std::to_string(window) +
              "-token local window under --attention local, got " +
              std::to_string(exp.seq_len));
  exp.policy = parse_policy(args);
  return exp;
}

ModelExperiment parse_model_experiment(const ArgParser& args) {
  ModelExperiment m;
  m.model = args.get_enum("arch", {nn::LmArch::kGpt2, nn::LmArch::kBert},
                          nn::lm_arch_name) == nn::LmArch::kBert
                ? nn::LmConfig::bert_paper()
                : nn::LmConfig::gpt2_paper();
  m.model.seq_len = bounded(args, "seq", m.model.seq_len, 1, "token count");
  m.model.batch = bounded(args, "batch", m.model.batch, 1, "count");
  m.model.n_layers = bounded(args, "layers", m.model.n_layers, 1, "count");
  m.policy = parse_policy(args);
  return m;
}

nn::OptimizerKind parse_optimizer(const ArgParser& args) {
  using nn::OptimizerKind;
  return args.get_enum("optimizer",
                       {OptimizerKind::kSgd, OptimizerKind::kSgdMomentum,
                        OptimizerKind::kAdam},
                       nn::optimizer_kind_name);
}

nn::TrainOptions parse_train_options(const ArgParser& args) {
  constexpr std::int64_t kMaxSteps = std::numeric_limits<std::int32_t>::max();
  nn::TrainOptions t;
  t.model = nn::LmConfig::tiny(args.get_enum(
      "arch", {nn::LmArch::kGpt2, nn::LmArch::kBert}, nn::lm_arch_name));
  t.steps = static_cast<std::int32_t>(
      bounded(args, "steps", 8, 1, "step count", kMaxSteps));
  t.optimizer.kind = parse_optimizer(args);
  t.loss_scaling = !args.get_bool("no-loss-scaling", false);
  t.bf16_grads = !args.get_bool("no-bf16-grads", false);
  t.scaler.init_scale =
      static_cast<float>(bounded(args, "init-scale", 65536, 1, "scale"));
  t.scaler.growth_interval = static_cast<std::int32_t>(
      bounded(args, "growth-interval", 50, 1, "step count", kMaxSteps));
  const std::int64_t corrupt = args.get_int("corrupt-step", -1);
  require(corrupt >= -1 && corrupt <= kMaxSteps,
          "--corrupt-step expects a step index, or -1 for none, got " +
              std::to_string(corrupt));
  t.corrupt_grad_step = static_cast<std::int32_t>(corrupt);
  t.seed = static_cast<std::uint64_t>(args.get_int("seed", 0x7A11));
  t.checkpoint_dir = args.get("checkpoint-dir", "");
  t.checkpoint_every = static_cast<std::int32_t>(
      bounded(args, "checkpoint-every", 1, 1, "step count", kMaxSteps));
  t.resume = args.get_bool("resume", false);
  t.resample_data = args.get_bool("resample-data", false);
  return t;
}

FaultOptions parse_fault_options(const ArgParser& args, std::uint32_t chips) {
  FaultOptions f;
  f.seed = static_cast<std::uint64_t>(
      args.get_int("fault-seed", static_cast<std::int64_t>(f.seed)));
  const std::int64_t mtbf = bounded(args, "mtbf", 0, 0, "step count");
  if (args.get_bool("faults", false)) {
    f.profile = mtbf > 0 ? sim::FaultProfile::from_mtbf_steps(
                               static_cast<double>(mtbf), chips)
                         : sim::FaultProfile::stress();
  }
  return f;
}

ResilientTrainingOptions parse_resilient_training(const ArgParser& args) {
  using scaleout::RecoveryPolicy;
  ResilientTrainingOptions o;
  scaleout::TrainingRunConfig& c = o.config;
  c.steps = static_cast<std::uint64_t>(
      bounded(args, "steps", static_cast<std::int64_t>(c.steps), 1,
              "step count"));
  c.step_time = millis(args, "step-ms", c.step_time, 1);
  c.chips = static_cast<std::uint32_t>(
      bounded(args, "chips", c.chips, 1, "chip count",
              std::numeric_limits<std::uint32_t>::max()));
  c.mtbf_steps = static_cast<double>(bounded(
      args, "mtbf", static_cast<std::int64_t>(c.mtbf_steps), 1, "step count"));
  const std::string recovery = args.get("recovery", "young-daly");
  if (recovery == "none") {
    c.policy = RecoveryPolicy::kNone;
  } else if (recovery == "fixed") {
    c.policy = RecoveryPolicy::kFixedInterval;
  } else if (recovery == "young-daly") {
    c.policy = RecoveryPolicy::kYoungDaly;
  } else {
    throw sim::InvalidArgument("unknown recovery policy: " + recovery +
                               " (--recovery expects none|fixed|young-daly)");
  }
  c.checkpoint_interval = static_cast<std::uint64_t>(bounded(
      args, "interval", static_cast<std::int64_t>(c.checkpoint_interval), 1,
      "step count"));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("fault-seed", 0xFA517));
  o.faults = sim::FaultInjector{
      seed, sim::FaultProfile::from_mtbf_steps(c.mtbf_steps, c.chips)};
  return o;
}

std::vector<serve::Request> StreamOptions::requests() const {
  return arrivals.empty() ? serve::poisson_stream(stream)
                          : serve::load_trace(arrivals);
}

ServeOptions parse_serve_options(const ArgParser& args) {
  ServeOptions o;
  parse_stream(args, o);
  o.config = parse_scheduler(args);
  const FaultOptions f = parse_fault_options(args, /*chips=*/1);
  o.config.faults = sim::FaultInjector{f.seed, f.profile};
  return o;
}

ServeClusterOptions parse_serve_cluster_options(const ArgParser& args) {
  using serve::LoadBalancePolicy;
  ServeClusterOptions o;
  parse_stream(args, o);
  serve::ClusterConfig& c = o.config;
  c.replica = parse_scheduler(args);
  // One cluster seed; the router derives a decorrelated stream per replica.
  const FaultOptions f = parse_fault_options(args, /*chips=*/1);
  c.fault_seed = f.seed;
  c.fault_profile = f.profile;

  c.replicas = bounded(args, "replicas", c.replicas, 1, "count");
  c.policy = args.get_enum("lb",
                           {LoadBalancePolicy::kRoundRobin,
                            LoadBalancePolicy::kJoinShortestQueue,
                            LoadBalancePolicy::kLeastKvLoad},
                           serve::load_balance_policy_name);
  c.heartbeat_interval = millis(args, "heartbeat-ms", c.heartbeat_interval, 0);
  c.suspicion_timeout = millis(args, "suspicion-ms", c.suspicion_timeout, 1);
  c.hedge_budget = millis(args, "hedge-ms", c.hedge_budget, 0);
  c.breaker_enabled = args.get_bool("breaker", c.breaker_enabled);
  c.breaker_window =
      bounded(args, "breaker-window", c.breaker_window, 1, "count");
  c.breaker_min_samples =
      bounded(args, "breaker-min", c.breaker_min_samples, 1, "count");
  c.breaker_threshold = args.get_f64("breaker-threshold", c.breaker_threshold);
  require(c.breaker_threshold > 0.0 && c.breaker_threshold <= 1.0,
          "--breaker-threshold expects a fraction in (0, 1]");
  c.breaker_cooldown =
      millis(args, "breaker-cooldown-ms", c.breaker_cooldown, 1);

  // Live migration & draining (serve/migration.*).
  c.migration.enabled = args.get_bool("migrate", c.migration.enabled);
  c.migration.chunk_blocks = bounded(
      args, "migration-chunk-blocks", c.migration.chunk_blocks, 1, "block count");
  if (args.has("drain-replica")) {
    require(c.replicas >= 2, "--drain-replica needs at least two replicas");
    c.drain_replica = args.get_int("drain-replica", c.drain_replica);
    require(c.drain_replica >= 0 && c.drain_replica < c.replicas,
            "--drain-replica expects an index in [0, " +
                std::to_string(c.replicas) + "), got " +
                std::to_string(c.drain_replica));
  }
  require(!args.has("drain-at-ms") || c.drain_replica >= 0,
          "--drain-at-ms requires --drain-replica");
  c.drain_at = millis(args, "drain-at-ms", c.drain_at, 0);
  c.health_window = millis(args, "health-window-ms", c.health_window, 1);
  c.degraded_after =
      bounded(args, "degraded-after", c.degraded_after, 1, "count");
  return o;
}

}  // namespace gaudi::core
