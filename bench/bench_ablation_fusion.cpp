// Fusion ablation (design-choice callout in DESIGN.md): how much of each
// profile is per-op kernel launch overhead plus element-wise intermediates
// round-tripping through global memory?  Reruns the paper's workloads with
// the element-wise fusion pass enabled.
#include <cstdio>

#include "core/experiments.hpp"
#include "core/table.hpp"
#include "graph/runtime.hpp"
#include "nn/models.hpp"

namespace {

using namespace gaudi;

struct Row {
  double plain_ms;
  double fused_ms;
  std::size_t plain_peak;
  std::size_t fused_peak;
};

Row run_layer(nn::AttentionKind kind, const sim::ChipConfig& cfg) {
  Row row{};
  for (const bool fuse : {false, true}) {
    graph::Graph g;
    nn::ParamStore params(0x1A1E);
    nn::TransformerLayerConfig layer_cfg;
    layer_cfg.d_model = 384;
    layer_cfg.heads = 6;
    layer_cfg.head_dim = 64;
    layer_cfg.attention.kind = kind;
    nn::TransformerLayer layer(g, params, layer_cfg, "layer");
    const graph::ValueId x =
        g.input(tensor::Shape{{128 * 2048, 384}}, tensor::DType::F32, "x");
    g.mark_output(layer(g, params, x, 128, 2048));

    graph::Runtime rt(cfg);
    graph::CompileOptions copts;
    copts.fuse_elementwise = fuse;
    graph::RunOptions opts;
    opts.mode = tpc::ExecMode::kTiming;
    const auto result = rt.run(rt.compile(g, copts), {}, opts);
    (fuse ? row.fused_ms : row.plain_ms) = result.makespan.ms();
    (fuse ? row.fused_peak : row.plain_peak) = result.hbm_peak_bytes;
  }
  return row;
}

Row run_llm(nn::LmArch arch, const sim::ChipConfig& cfg) {
  Row row{};
  for (const bool fuse : {false, true}) {
    graph::Graph g;
    const nn::LmConfig model_cfg = arch == nn::LmArch::kGpt2
                                       ? nn::LmConfig::gpt2_paper()
                                       : nn::LmConfig::bert_paper();
    (void)nn::build_language_model(g, model_cfg);
    graph::Runtime rt(cfg);
    graph::CompileOptions copts;
    copts.fuse_elementwise = fuse;
    graph::RunOptions opts;
    opts.mode = tpc::ExecMode::kTiming;
    const auto result = rt.run(rt.compile(g, copts), {}, opts);
    (fuse ? row.fused_ms : row.plain_ms) = result.makespan.ms();
    (fuse ? row.fused_peak : row.plain_peak) = result.hbm_peak_bytes;
  }
  return row;
}

}  // namespace

int main() {
  const sim::ChipConfig cfg = sim::ChipConfig::hls1();
  core::TextTable table({"Workload", "Unfused (ms)", "Fused (ms)", "Saved",
                         "Peak HBM unfused", "fused"});

  auto add = [&](const char* name, const Row& r) {
    table.add_row(
        {name, core::TextTable::num(r.plain_ms), core::TextTable::num(r.fused_ms),
         core::TextTable::num((1.0 - r.fused_ms / r.plain_ms) * 100.0, 1) + "%",
         core::TextTable::num(static_cast<double>(r.plain_peak) / (1 << 30), 2) +
             " GB",
         core::TextTable::num(static_cast<double>(r.fused_peak) / (1 << 30), 2) +
             " GB"});
  };

  add("layer/softmax", run_layer(nn::AttentionKind::kSoftmax, cfg));
  add("layer/linear", run_layer(nn::AttentionKind::kLinear, cfg));
  add("layer/performer", run_layer(nn::AttentionKind::kPerformer, cfg));
  add("gpt2 step", run_llm(nn::LmArch::kGpt2, cfg));
  add("bert step", run_llm(nn::LmArch::kBert, cfg));

  std::puts("Ablation: element-wise fusion pass (launch overhead +");
  std::puts("intermediate global-memory traffic eliminated per chain)");
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}
