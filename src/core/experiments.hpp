// Experiment drivers: one entry point per table/figure of the paper.
//
// These are the library's public reproduction API — the bench binaries are
// thin printers over these functions, and the integration tests assert the
// paper's qualitative claims against their outputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "graph/runtime.hpp"
#include "nn/models.hpp"
#include "nn/transformer.hpp"

namespace gaudi::core {

// ---------------------------------------------------------------------------
// Table 1: operation -> engine mapping
// ---------------------------------------------------------------------------

struct OpMappingRow {
  std::string operation;    ///< the torch-level spelling
  std::string explanation;  ///< Table 1's description
  graph::Engine engine;     ///< where the compiled graph placed it
};

/// Probes the compiler with each operation from Table 1 by building a real
/// graph and reading back the engine assignment.
[[nodiscard]] std::vector<OpMappingRow> run_op_mapping_probe();

[[nodiscard]] std::string format_op_mapping(const std::vector<OpMappingRow>& rows);

// ---------------------------------------------------------------------------
// Table 2: MME vs TPC batched matmul
// ---------------------------------------------------------------------------

struct MmeVsTpcRow {
  std::int64_t size = 0;
  double t_mme_ms = 0.0;
  double f_mme_tflops = 0.0;
  double t_tpc_ms = 0.0;
  double f_tpc_tflops = 0.0;
  double speedup = 0.0;  ///< T_TPC / T_MME
};

/// Square batched matmuls (batch 64, as §3.2) on both engines.
[[nodiscard]] std::vector<MmeVsTpcRow> run_mme_vs_tpc(
    const sim::ChipConfig& cfg, const std::vector<std::int64_t>& sizes,
    std::int64_t batch = 64);

[[nodiscard]] std::string format_mme_vs_tpc(const std::vector<MmeVsTpcRow>& rows);

// ---------------------------------------------------------------------------
// Figures 4-7: single-Transformer-layer profiles
// ---------------------------------------------------------------------------

/// The §3.3 layer configuration: "input sequence length, batch size, the
/// number of heads, and the hidden size per head as 2048, 128, 6, and 64".
struct LayerExperiment {
  std::int64_t seq_len = 2048;
  std::int64_t batch = 128;
  std::int64_t heads = 6;
  std::int64_t head_dim = 64;
  nn::AttentionConfig attention{};
  std::int64_t ffn_dim = 0;  ///< §3.3 profiles the attention block
  graph::SchedulePolicy policy = graph::SchedulePolicy::kBarrier;
};

struct LayerProfile {
  TraceSummary summary;
  graph::Trace trace;
  std::size_t hbm_peak_bytes = 0;
};

/// Appends one Transformer layer at the experiment's scale to `g` and marks
/// its output: the graph both run_layer_profile and `profile-layer` run.
void build_layer_experiment(graph::Graph& g, const LayerExperiment& exp);

/// Builds the experiment's layer and profiles it in timing mode under the
/// experiment's scheduler policy.
[[nodiscard]] LayerProfile run_layer_profile(const LayerExperiment& exp,
                                             const sim::ChipConfig& cfg);

// ---------------------------------------------------------------------------
// Figures 8-9: end-to-end language-model training-step profiles
// ---------------------------------------------------------------------------

struct LlmProfile {
  TraceSummary summary;
  graph::Trace trace;
  std::size_t hbm_peak_bytes = 0;
  std::size_t param_count = 0;
  std::size_t node_count = 0;
};

[[nodiscard]] LlmProfile run_llm_profile(const nn::LmConfig& model_cfg,
                                         graph::SchedulePolicy policy,
                                         const sim::ChipConfig& cfg);

}  // namespace gaudi::core
