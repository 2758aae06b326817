// paper-sweep: the paper's configurations in timing mode, each graph built
// and compiled cold every pass as the figure benches do: Table 2 at sizes
// 128-2048, the Figs 4-7 single-layer profiles, and the Fig 8/9 GPT-2 and
// BERT training steps under both scheduler policies.
#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/analysis.hpp"
#include "core/experiments.hpp"
#include "graph/runtime.hpp"
#include "graph/scheduler.hpp"
#include "mme/mme.hpp"
#include "nn/models.hpp"
#include "nn/transformer.hpp"
#include "tpc/cluster.hpp"
#include "tpc/kernels.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using gaudi::graph::CompiledGraph;
using gaudi::graph::Engine;
using gaudi::graph::SchedulePolicy;

constexpr std::array<std::int64_t, 5> kTable2Sizes = {128, 256, 512, 1024,
                                                      2048};
constexpr std::int64_t kTable2Batch = 64;
constexpr double kHbmLimitBytes = 32.0 * 1024 * 1024 * 1024;

/// One row of paper_reference.csv.
struct RefRow {
  std::string value;
  std::string role;
};

std::map<std::string, RefRow> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open paper reference " + path);
  std::map<std::string, RefRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::stringstream ss(line);
    std::string key, value, unit, role;
    std::getline(ss, key, ',');
    std::getline(ss, value, ',');
    std::getline(ss, unit, ',');
    std::getline(ss, role, ',');
    rows[key] = RefRow{value, role};
  }
  return rows;
}

/// A single-layer profile of Figs 4-7.
struct LayerCase {
  const char* key;
  gaudi::nn::AttentionKind kind;
  gaudi::nn::Activation feature_map;
  bool with_overlap;  ///< also run under the overlap policy
};

using gaudi::nn::Activation;
using gaudi::nn::AttentionKind;
constexpr std::array<LayerCase, 7> kLayers = {{
    {"fig4_softmax", AttentionKind::kSoftmax, Activation::kElu, false},
    {"fig5_linear", AttentionKind::kLinear, Activation::kElu, false},
    {"fig6_performer", AttentionKind::kPerformer, Activation::kElu, true},
    {"fig7_relu", AttentionKind::kLinear, Activation::kRelu, false},
    {"fig7_leaky_relu", AttentionKind::kLinear, Activation::kLeakyRelu, false},
    {"fig7_gelu", AttentionKind::kLinear, Activation::kGelu, false},
    {"fig7_glu", AttentionKind::kLinear, Activation::kGlu, false},
}};

/// What one graph run leaves for the checks and metrics.
struct RunRecord {
  std::string key;  ///< e.g. "fig6_performer.overlap"
  const CompiledGraph* compiled = nullptr;
  SchedulePolicy policy = SchedulePolicy::kBarrier;
  gaudi::core::TraceSummary summary;
  std::size_t hbm_peak_bytes = 0;
  std::size_t nodes_run = 0;
  std::size_t trace_events = 0;
};

class PaperSweep final : public Workload {
 public:
  PaperSweep(std::uint64_t seed, const std::string& reference_csv)
      : seed_(seed), ref_(load_reference(reference_csv)) {}

  bool pass(const std::string& tag) override {
    compiled_.clear();
    runs_.clear();
    model_nodes_ = 0;
    run_table2(tag);
    for (const LayerCase& c : kLayers) run_layer(c, tag);
    run_model(gaudi::nn::LmConfig::gpt2_paper(), "gpt2", tag);
    run_model(gaudi::nn::LmConfig::bert_paper(), "bert", tag);
    if (first_makespans_.empty()) first_makespans_ = makespans();
    return true;
  }

  void after_cold_pass(Metrics& m) override {
    (void)m;
    first_makespans_.clear();
  }

  void check(CheckLog& log) override {
    log.attempted += static_cast<std::int64_t>(runs_.size());
    std::int64_t mapped = 0;
    const auto probe = gaudi::core::run_op_mapping_probe();
    for (const auto& row : probe) {
      const auto it = ref_.find("table1." + row.operation);
      mapped += it != ref_.end() &&
                it->second.value == gaudi::graph::engine_name(row.engine);
    }
    log.expect(mapped == 9 && probe.size() == 9,
               "Table 1 probe maps " + std::to_string(mapped) + "/9");
    for (const RunRecord& r : runs_) {
      gaudi::graph::RunOptions opts = run_options(r.policy);
      opts.validate = true;
      std::string error;
      try {
        (void)rt_.run(*r.compiled, {}, opts);
      } catch (const std::exception& e) {
        error = e.what();
      }
      log.expect(error.empty(), r.key + ": validation failed: " + error);
      log.expect(static_cast<double>(r.hbm_peak_bytes) <= kHbmLimitBytes,
                 r.key + ": HBM peak above 32 GB");
    }
    for (const char* key : {"fig6_performer", "gpt2", "bert"}) {
      log.expect(makespan_ms(std::string(key) + ".overlap") <=
                     makespan_ms(std::string(key) + ".barrier"),
                 std::string(key) + ": overlap makespan exceeds barrier");
    }
    log.expect(makespans() == first_makespans_,
               "simulated makespans differ between passes");
  }

  void end_to_end(Metrics& m) const override {
    m.set("sim_step_ms",
          makespan_ms("gpt2.barrier") + makespan_ms("bert.barrier"), "sim_ms");
    std::vector<double> got, want;
    for (const auto& [key, row] : ref_) {
      if (row.role != "held_out") continue;
      got.push_back(held_out_value(key));
      want.push_back(std::stod(row.value));
    }
    m.set("paper_err_pct", mean_abs_pct_err(got, want), "%");
  }

  void per_layer(Metrics& m,
                 const std::map<std::string, double>& self_s) const override {
    const auto self = [&](const char* name) {
      return self_s.count(name) ? self_s.at(name) : 0.0;
    };
    double nodes_run = 0, events = 0;
    for (const RunRecord& r : runs_) {
      nodes_run += static_cast<double>(r.nodes_run);
      events += static_cast<double>(r.trace_events);
    }
    m.set("nn.models.build_s", self("nn.models.build_language_model"), "s");
    m.set("nn.models.nodes", static_cast<double>(model_nodes_), "count");
    m.set("graph.compiler.compile_s", self("graph.compiler.compile"), "s");
    m.set("graph.runtime.run_s", self("graph.runtime.run"), "s");
    m.set("graph.runtime.host_us_per_node",
          self("graph.runtime.run") / nodes_run * 1e6, "us");
    m.set("graph.runtime.trace_events", events, "count");
    m.set("graph.scheduler.schedule_s", self("graph.scheduler.schedule"), "s");
    m.set("tpc.cluster.kernel_s", self("tpc.cluster.run"), "s");
    m.set("mme.cost_s", self("mme.cost"), "s");
    m.set("core.analysis.summarize_s", self("core.analysis.summarize"), "s");

    std::vector<double> mme_want, tpc_want;
    for (std::size_t i = 0; i < kTable2Sizes.size(); ++i) {
      const std::string s = "s" + std::to_string(kTable2Sizes[i]);
      m.set("mme.table2.tflops." + s, mme_tflops_[i], "TFLOPS");
      m.set("tpc.table2.tflops." + s, tpc_tflops_[i], "TFLOPS");
      mme_want.push_back(std::stod(ref_.at("table2.mme_tflops." + s).value));
      tpc_want.push_back(std::stod(ref_.at("table2.tpc_tflops." + s).value));
    }
    m.set("mme.table2_fit_err_pct",
          mean_abs_pct_err({mme_tflops_.begin(), mme_tflops_.end()}, mme_want),
          "%");
    m.set("tpc.table2_fit_err_pct",
          mean_abs_pct_err({tpc_tflops_.begin(), tpc_tflops_.end()}, tpc_want),
          "%");

    m.set("nn.attention.fig4_softmax_ms", makespan_ms("fig4_softmax.barrier"),
          "sim_ms");
    m.set("nn.attention.fig5_linear_ms", held_out_value("fig5.linear_ms"),
          "sim_ms");
    m.set("nn.attention.fig5_speedup", held_out_value("fig5.speedup"), "x");
    m.set("nn.attention.fig6_performer_ms",
          held_out_value("fig6.performer_ms"), "sim_ms");
    m.set("nn.attention.fig6_speedup", held_out_value("fig6.speedup"), "x");
    for (const char* act : {"relu", "leaky_relu", "gelu", "glu"}) {
      const std::string k = std::string("fig7_") + act + "_ms";
      m.set("nn.attention." + k,
            held_out_value(std::string("fig7.") + act + "_ms"), "sim_ms");
    }

    const auto& fig4 = record("fig4_softmax.barrier").summary;
    m.set("mme.fig4.idle_pct", 100.0 * fig4.mme_idle_fraction, "%");
    m.set("mme.fig8.idle_pct",
          100.0 * record("gpt2.barrier").summary.mme_idle_fraction, "%");
    m.set("mme.fig9.idle_pct",
          100.0 * record("bert.barrier").summary.mme_idle_fraction, "%");
    m.set("mme.fig4.gaps", static_cast<double>(fig4.mme_gap_count), "count");
    m.set("tpc.fig4.softmax_pct", 100.0 * fig4.softmax_share_of_tpc, "%");
    m.set("memory.fig4.hbm_peak_gb",
          gib(record("fig4_softmax.barrier").hbm_peak_bytes), "GiB");
    m.set("memory.fig8.hbm_peak_gb", gib(record("gpt2.barrier").hbm_peak_bytes),
          "GiB");
    using FigKey = std::pair<const char*, const char*>;
    for (const auto& [fig, key] : std::array<FigKey, 3>{
             {{"6", "fig6_performer"}, {"8", "gpt2"}, {"9", "bert"}}}) {
      const double barrier = makespan_ms(std::string(key) + ".barrier");
      const double overlap = makespan_ms(std::string(key) + ".overlap");
      m.set(std::string("graph.scheduler.fig") + fig + "_overlap_gain_pct",
            100.0 * (barrier - overlap) / barrier, "%");
    }
    m.set("nn.models.gpt2_step_ms", makespan_ms("gpt2.barrier"), "sim_ms");
    m.set("nn.models.bert_step_ms", makespan_ms("bert.barrier"), "sim_ms");
    for (const auto& [group, engines] : gpt2_breakdown_) {
      m.set("nn.models.gpt2." + group + ".mme_ms", engines[0], "sim_ms");
      m.set("nn.models.gpt2." + group + ".tpc_ms", engines[1], "sim_ms");
      m.set("nn.models.gpt2." + group + ".dma_ms", engines[2], "sim_ms");
    }
  }

 private:
  [[nodiscard]] gaudi::graph::RunOptions run_options(
      SchedulePolicy policy) const {
    gaudi::graph::RunOptions opts;
    opts.mode = gaudi::tpc::ExecMode::kTiming;
    opts.policy = policy;
    opts.seed = seed_;
    return opts;
  }

  void run_table2(const std::string& tag) {
    const gaudi::mme::MmeEngine mme(rt_.config().mme);
    const gaudi::tpc::TpcCluster cluster(rt_.config().tpc);
    for (std::size_t i = 0; i < kTable2Sizes.size(); ++i) {
      const std::int64_t s = kTable2Sizes[i];
      {
        const Tracer::Scope span("mme.cost", tag);
        mme_tflops_[i] =
            mme.cost(gaudi::mme::GemmShape{kTable2Batch, s, s, s}).tflops();
      }
      const gaudi::tensor::Shape shape{{kTable2Batch, s, s}};
      const auto a = gaudi::tensor::Tensor::phantom(shape);
      const auto b = gaudi::tensor::Tensor::phantom(shape);
      const auto c = gaudi::tensor::Tensor::phantom(shape);
      const gaudi::tpc::BatchedMatMulTpcKernel kernel(a, b, c);
      const Tracer::Scope span("tpc.cluster.run", tag);
      tpc_tflops_[i] =
          cluster.run(kernel, gaudi::tpc::ExecMode::kTiming).tflops();
    }
  }

  /// Compiles `g` and runs it under the barrier policy (and, when asked,
  /// the overlap policy), recording each run as `key`.<policy>.
  void compile_and_run(const gaudi::graph::Graph& g, const std::string& key,
                       bool with_overlap, const std::string& tag) {
    {
      const Tracer::Scope span("graph.compiler.compile", tag);
      compiled_.push_back(std::make_unique<CompiledGraph>(rt_.compile(g)));
    }
    const CompiledGraph& cg = *compiled_.back();
    std::vector<SchedulePolicy> policies = {SchedulePolicy::kBarrier};
    if (with_overlap) policies.push_back(SchedulePolicy::kOverlap);
    for (const SchedulePolicy policy : policies) {
      gaudi::graph::ProfileResult res;
      {
        const Tracer::Scope span("graph.runtime.run", tag);
        res = rt_.run(cg, {}, run_options(policy));
      }
      RunRecord r;
      r.key = key + "." + gaudi::graph::schedule_policy_name(policy);
      r.compiled = &cg;
      r.policy = policy;
      {
        const Tracer::Scope span("core.analysis.summarize", tag);
        r.summary = gaudi::core::summarize(res.trace);
      }
      if (tracer().enabled()) {
        // Traced run only: the list-scheduling share of the run, measured
        // by re-scheduling its node executions through the plan-driven
        // overload.
        const Tracer::Scope span("graph.scheduler.schedule", tag);
        (void)gaudi::graph::schedule(cg, res.node_execs, policy);
      }
      r.hbm_peak_bytes = res.hbm_peak_bytes;
      r.nodes_run = res.node_execs.size();
      r.trace_events = res.trace.events().size();
      if (r.key == "gpt2.barrier") record_gpt2_breakdown(cg, res.trace);
      runs_.push_back(std::move(r));
    }
  }

  void run_layer(const LayerCase& c, const std::string& tag) {
    // The section 3.3 layer: seq 2048, batch 128, 6 heads, head size 64.
    const gaudi::core::LayerExperiment exp;
    gaudi::graph::Graph g;
    {
      const Tracer::Scope span("nn.transformer.build", tag);
      gaudi::nn::ParamStore params(0x1A1E);
      const std::int64_t d_model = exp.heads * exp.head_dim;
      const auto x = g.input(
          gaudi::tensor::Shape{{exp.batch * exp.seq_len, d_model}},
          gaudi::tensor::DType::F32, "layer_input");
      gaudi::nn::TransformerLayerConfig cfg;
      cfg.d_model = d_model;
      cfg.heads = exp.heads;
      cfg.head_dim = exp.head_dim;
      cfg.attention.kind = c.kind;
      cfg.attention.feature_map = c.feature_map;
      cfg.ffn_dim = exp.ffn_dim;
      const gaudi::nn::TransformerLayer layer(g, params, cfg, "layer");
      g.mark_output(layer(g, params, x, exp.batch, exp.seq_len));
    }
    compile_and_run(g, c.key, c.with_overlap, tag);
  }

  void run_model(const gaudi::nn::LmConfig& cfg, const std::string& key,
                 const std::string& tag) {
    gaudi::graph::Graph g;
    {
      const Tracer::Scope span("nn.models.build_language_model", tag);
      (void)gaudi::nn::build_language_model(g, cfg);
    }
    model_nodes_ += g.num_nodes();
    compile_and_run(g, key, /*with_overlap=*/true, tag);
  }

  /// GPT-2 busy time per engine grouped by the dotted node-name prefixes
  /// nn/models.cpp assigns (backward nodes extend their forward names).
  void record_gpt2_breakdown(const CompiledGraph& cg,
                             const gaudi::graph::Trace& trace) {
    gpt2_breakdown_.clear();
    for (const char* group : {"embed", "layer0", "layer1", "head"}) {
      gpt2_breakdown_[group] = {0.0, 0.0, 0.0};
    }
    for (const auto& e : trace.events()) {
      if (gaudi::graph::is_nested_annotation(e.kind) || e.node < 0) continue;
      const std::string& label = cg.graph.node(e.node).label;
      if (label.rfind("gpt2.", 0) != 0) continue;
      std::string group = "embed";
      if (label.rfind("gpt2.layer0.", 0) == 0) {
        group = "layer0";
      } else if (label.rfind("gpt2.layer1.", 0) == 0) {
        group = "layer1";
      } else {
        for (const char* head :
             {"gpt2.ln_f", "gpt2.lm_head", "gpt2.loss", "gpt2.scaled_loss"}) {
          if (label.rfind(head, 0) == 0) group = "head";
        }
      }
      const int slot = e.engine == Engine::kMme   ? 0
                       : e.engine == Engine::kTpc ? 1
                       : e.engine == Engine::kDma ? 2
                                                  : -1;
      if (slot >= 0) gpt2_breakdown_[group][slot] += e.duration().ms();
    }
  }

  [[nodiscard]] const RunRecord& record(const std::string& key) const {
    for (const RunRecord& r : runs_) {
      if (r.key == key) return r;
    }
    throw std::logic_error("paper-sweep ran no graph named " + key);
  }
  [[nodiscard]] double makespan_ms(const std::string& key) const {
    return record(key).summary.makespan.ms();
  }
  [[nodiscard]] std::vector<double> makespans() const {
    std::vector<double> out;
    for (const RunRecord& r : runs_) out.push_back(r.summary.makespan.ms());
    return out;
  }

  /// The simulated counterpart of a held-out reference row.
  [[nodiscard]] double held_out_value(const std::string& key) const {
    const double softmax = makespan_ms("fig4_softmax.barrier");
    if (key == "fig5.linear_ms") return makespan_ms("fig5_linear.barrier");
    if (key == "fig5.speedup") {
      return softmax / makespan_ms("fig5_linear.barrier");
    }
    if (key == "fig6.performer_ms") {
      return makespan_ms("fig6_performer.barrier");
    }
    if (key == "fig6.speedup") {
      return softmax / makespan_ms("fig6_performer.barrier");
    }
    if (key.rfind("fig7.", 0) == 0 && key.size() > 8) {
      // fig7.<act>_ms -> fig7_<act>.barrier
      const std::string act = key.substr(5, key.size() - 8);
      return makespan_ms("fig7_" + act + ".barrier");
    }
    throw std::logic_error("no simulated value for reference row " + key);
  }

  static double gib(std::size_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024 * 1024);
  }

  std::uint64_t seed_;
  std::map<std::string, RefRow> ref_;
  gaudi::graph::Runtime rt_;
  std::vector<std::unique_ptr<CompiledGraph>> compiled_;
  std::vector<RunRecord> runs_;
  std::size_t model_nodes_ = 0;
  std::array<double, kTable2Sizes.size()> mme_tflops_{}, tpc_tflops_{};
  std::map<std::string, std::array<double, 3>> gpt2_breakdown_;
  std::vector<double> first_makespans_;
};

}  // namespace

WorkloadPtr make_paper_sweep(std::uint64_t seed,
                             const std::string& reference_csv) {
  return std::make_unique<PaperSweep>(seed, reference_csv);
}

}  // namespace perfbench
