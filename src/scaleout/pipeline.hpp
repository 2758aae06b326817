// Pipeline-parallel step model (GPipe-style schedule).
//
// The model's layers split into stages across chips; a step runs M
// microbatches through the pipeline, so (M + P - 1) stage slots elapse and
// the bubble fraction (P-1)/(M+P-1) is pure idle time — the other axis of
// the HLS-1's "expanding and multiplying setups" (paper §2.1) besides data
// parallelism.  Activations cross stage boundaries over the RoCE links.
//
// Under faults a straggling stage paces every slot, boundary transfers
// retry transient faults and slow down on degraded links, and a failed chip
// re-partitions the model over the surviving stages after the re-formation
// latency.
#pragma once

#include <cstdint>

#include "scaleout/roce.hpp"

namespace gaudi::scaleout {

struct PipelineConfig {
  RoceConfig roce{};
  std::uint32_t stages = 8;        ///< chips, one stage each
  std::uint32_t microbatches = 8;  ///< M per step
};

struct PipelineStep {
  sim::SimTime stage_time{};     ///< compute per stage per microbatch
  sim::SimTime boundary_comm{};  ///< activation transfer per boundary
  sim::SimTime slot_time{};      ///< stage + exposed comm
  sim::SimTime total{};          ///< (M + P - 1) slots
  double bubble_fraction = 0.0;  ///< (P-1)/(M+P-1)
  double utilization = 0.0;      ///< 1 - bubble
  double tokens_per_second = 0.0;
  /// Throughput relative to one chip running the whole model (which takes
  /// P * stage_time per microbatch).
  double speedup_vs_single_chip = 0.0;
  std::uint32_t stages_used = 0;  ///< survivors, one stage each
  FaultStats faults;
};

/// Models one pipeline step.
/// `full_model_step`: single-chip time for one *microbatch* through the
/// whole model (split evenly into `stages`);
/// `activation_bytes`: per-microbatch activation volume at each boundary;
/// `tokens_per_microbatch`: tokens consumed by one microbatch;
/// `step_index` keys the deterministic fault draws.
/// Throws sim::ResourceExhausted when every stage's chip fails.
[[nodiscard]] PipelineStep pipeline_step(
    const PipelineConfig& cfg, sim::SimTime full_model_step,
    std::size_t activation_bytes, std::int64_t tokens_per_microbatch,
    const sim::FaultInjector& faults = {}, std::uint64_t step_index = 0);

}  // namespace gaudi::scaleout
