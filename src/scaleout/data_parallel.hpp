// Data-parallel training-step model across the HLS-1 box.
//
// Combines a single-chip training-step profile (from the graph runtime)
// with the gradient all-reduce cost: each chip computes on its own batch
// shard, then gradients synchronize over the RoCE ring.  Optionally the
// all-reduce overlaps the backward pass (bucketed gradient sync), bounding
// the step at max(compute, comm) instead of their sum.
//
// Under faults the step is synchronous: the slowest (possibly straggling)
// chip paces compute, HBM pressure stalls it, and the gradient sync runs
// the fault-aware all-reduce.  On chip loss the step completes on the
// survivors, so throughput and tokens scale down with them.
#pragma once

#include <cstdint>

#include "scaleout/allreduce.hpp"

namespace gaudi::scaleout {

struct DataParallelConfig {
  RoceConfig roce{};
  std::uint32_t chips = 8;
  /// Overlap gradient sync with the backward pass (bucketed all-reduce).
  bool overlap_comm = false;
  /// Fraction of the step during which buckets can sync when overlapping
  /// (the backward portion of fwd+bwd, roughly 2/3 for transformers).
  double overlappable_fraction = 0.6;
};

struct DataParallelStep {
  sim::SimTime compute{};       ///< per-chip step, stalls included
  sim::SimTime comm{};          ///< gradient all-reduce
  sim::SimTime exposed_comm{};  ///< comm not hidden behind compute
  sim::SimTime total{};
  double tokens_per_second = 0.0;
  /// Vs perfect linear scaling over the full box: chip loss shows here.
  double scaling_efficiency = 0.0;
  std::uint32_t chips_used = 0;  ///< survivors running the step
  sim::SimTime straggler_stall{};
  sim::SimTime hbm_stall{};
  FaultStats faults;
};

/// Models one synchronous data-parallel step.
/// `single_chip_step`: profiled step time at per-chip batch size;
/// `grad_bytes`: total gradient volume to synchronize;
/// `tokens_per_chip`: tokens consumed per chip per step;
/// `step_index` keys the deterministic fault draws.
[[nodiscard]] DataParallelStep data_parallel_step(
    const DataParallelConfig& cfg, sim::SimTime single_chip_step,
    std::size_t grad_bytes, std::int64_t tokens_per_chip,
    const sim::FaultInjector& faults = {}, std::uint64_t step_index = 0);

}  // namespace gaudi::scaleout
