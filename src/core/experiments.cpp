#include "core/experiments.hpp"

#include <utility>

#include "core/table.hpp"
#include "tpc/cluster.hpp"
#include "tpc/kernels.hpp"

namespace gaudi::core {

using graph::Engine;
using graph::Graph;
using graph::OpKind;
using graph::ValueId;

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

std::vector<OpMappingRow> run_op_mapping_probe() {
  Graph g;
  const ValueId a = g.input(tensor::Shape{{8, 8}}, tensor::DType::F32, "a");
  const ValueId b = g.input(tensor::Shape{{8, 8}}, tensor::DType::F32, "b");

  struct Probe {
    std::string op;
    std::string explanation;
    graph::NodeId node;
  };
  std::vector<Probe> probes;
  auto note = [&](std::string op, std::string expl) {
    probes.push_back(
        Probe{std::move(op), std::move(expl),
              static_cast<graph::NodeId>(g.num_nodes() - 1)});
  };

  g.mul(a, b);
  note("torch.mul", "element wise mul");
  g.matmul(a, b);
  note("torch.matmul", "matrix product");
  g.unary(tpc::UnaryKind::kSquare, a);
  note("torch.square", "tensor square");
  g.unary(tpc::UnaryKind::kSquare, a);
  note("**", "tensor square");
  g.add(a, b);
  note("tensor +- tensor", "tensor +- tensor");
  g.mul_scalar(a, 2.0f);
  note("scalar * tensor", "scalar * tensor");
  g.add_scalar(a, 2.0f);
  note("scalar +- tensor", "scalar +- tensor");
  g.unary(tpc::UnaryKind::kSqrt, a);
  note("torch.sqrt", "square root");
  g.unary(tpc::UnaryKind::kLog, a);
  note("torch.log", "natural logarithm");

  std::vector<OpMappingRow> rows;
  rows.reserve(probes.size());
  for (const auto& p : probes) {
    rows.push_back(
        OpMappingRow{p.op, p.explanation, engine_of(g.node(p.node).kind)});
  }
  return rows;
}

std::string format_op_mapping(const std::vector<OpMappingRow>& rows) {
  TextTable t({"Operation", "Explanation", "Mapping"});
  for (const auto& r : rows) {
    t.add_row({r.operation, r.explanation, std::string(engine_name(r.engine))});
  }
  return t.to_string();
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

std::vector<MmeVsTpcRow> run_mme_vs_tpc(const sim::ChipConfig& cfg,
                                        const std::vector<std::int64_t>& sizes,
                                        std::int64_t batch) {
  const mme::MmeEngine mme(cfg.mme);
  const tpc::TpcCluster cluster(cfg.tpc);

  std::vector<MmeVsTpcRow> rows;
  rows.reserve(sizes.size());
  for (const std::int64_t s : sizes) {
    MmeVsTpcRow row;
    row.size = s;

    const mme::MmeRunResult rm = mme.cost(mme::GemmShape{batch, s, s, s});
    row.t_mme_ms = rm.duration.ms();
    row.f_mme_tflops = rm.tflops();

    const tensor::Shape shape{{batch, s, s}};
    const tensor::Tensor a = tensor::Tensor::phantom(shape);
    const tensor::Tensor b = tensor::Tensor::phantom(shape);
    const tensor::Tensor c = tensor::Tensor::phantom(shape);
    const tpc::BatchedMatMulTpcKernel kernel(a, b, c);
    const tpc::RunResult rt = cluster.run(kernel, tpc::ExecMode::kTiming);
    row.t_tpc_ms = rt.duration.ms();
    row.f_tpc_tflops = rt.tflops();

    row.speedup = row.t_mme_ms > 0.0 ? row.t_tpc_ms / row.t_mme_ms : 0.0;
    rows.push_back(row);
  }
  return rows;
}

std::string format_mme_vs_tpc(const std::vector<MmeVsTpcRow>& rows) {
  TextTable t({"Size", "T_MME (ms)", "F_MME (TFLOPS)", "T_TPC (ms)",
               "F_TPC (TFLOPS)", "Speedup"});
  for (const auto& r : rows) {
    t.add_row({std::to_string(r.size), TextTable::num(r.t_mme_ms),
               TextTable::num(r.f_mme_tflops), TextTable::num(r.t_tpc_ms),
               TextTable::num(r.f_tpc_tflops), TextTable::num(r.speedup, 1)});
  }
  return t.to_string();
}

// ---------------------------------------------------------------------------
// Figures 4-7
// ---------------------------------------------------------------------------

void build_layer_experiment(Graph& g, const LayerExperiment& exp) {
  nn::ParamStore params(0x1A1E);
  const std::int64_t d_model = exp.heads * exp.head_dim;
  const std::int64_t tokens = exp.batch * exp.seq_len;

  const ValueId x = g.input(tensor::Shape{{tokens, d_model}}, tensor::DType::F32,
                            "layer_input");

  nn::TransformerLayerConfig layer_cfg;
  layer_cfg.d_model = d_model;
  layer_cfg.heads = exp.heads;
  layer_cfg.head_dim = exp.head_dim;
  layer_cfg.attention = exp.attention;
  layer_cfg.ffn_dim = exp.ffn_dim;
  nn::TransformerLayer layer(g, params, layer_cfg, "layer");
  g.mark_output(layer(g, params, x, exp.batch, exp.seq_len));
}

LayerProfile run_layer_profile(const LayerExperiment& exp,
                               const sim::ChipConfig& cfg) {
  Graph g;
  build_layer_experiment(g, exp);

  graph::Runtime runtime(cfg);
  const graph::CompiledGraph compiled = runtime.compile(g);
  graph::RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.policy = exp.policy;
  const graph::ProfileResult result = runtime.run(compiled, {}, opts);

  LayerProfile profile;
  profile.summary = summarize(result.trace);
  profile.trace = result.trace;
  profile.hbm_peak_bytes = result.hbm_peak_bytes;
  return profile;
}

// ---------------------------------------------------------------------------
// Figures 8-9
// ---------------------------------------------------------------------------

LlmProfile run_llm_profile(const nn::LmConfig& model_cfg,
                           graph::SchedulePolicy policy,
                           const sim::ChipConfig& cfg) {
  Graph g;
  const nn::LanguageModel model = nn::build_language_model(g, model_cfg);

  graph::Runtime runtime(cfg);
  const graph::CompiledGraph compiled = runtime.compile(g);
  graph::RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.policy = policy;
  const graph::ProfileResult result = runtime.run(compiled, {}, opts);

  LlmProfile profile;
  profile.summary = summarize(result.trace);
  profile.trace = result.trace;
  profile.hbm_peak_bytes = result.hbm_peak_bytes;
  profile.param_count = model.param_count(g);
  profile.node_count = g.num_nodes();
  return profile;
}

}  // namespace gaudi::core
