#include "scaleout/pipeline.hpp"

#include <algorithm>

#include "sim/error.hpp"

namespace gaudi::scaleout {

PipelineStep pipeline_step(const PipelineConfig& cfg, sim::SimTime full_model_step,
                           std::size_t activation_bytes,
                           std::int64_t tokens_per_microbatch,
                           const sim::FaultInjector& faults,
                           std::uint64_t step_index) {
  GAUDI_CHECK(cfg.stages >= 1, "pipeline needs at least one stage");
  GAUDI_CHECK(cfg.microbatches >= 1, "pipeline needs at least one microbatch");
  GAUDI_CHECK(full_model_step > sim::SimTime::zero(),
              "model step time must be positive");

  PipelineStep step;
  FaultStats& f = step.faults;
  // Losing a stage forces a re-partition of the layers over the survivors
  // before the step can run.
  const std::vector<std::uint32_t> lost =
      lose_chips(cfg.roce, faults, step_index, cfg.stages, f);
  const std::uint32_t stages =
      cfg.stages - static_cast<std::uint32_t>(lost.size());
  step.stages_used = stages;
  // A straggling stage paces every slot: the GPipe schedule is synchronous
  // per slot, so the whole pipeline marches at the slowest stage's beat.
  const double slow =
      faults.slowest_straggler(step_index, cfg.stages, lost, &f.stragglers);
  double boundary_slow = 1.0;
  for (std::uint32_t s = 0; s + 1 < stages; ++s) {  // boundary link s -> s+1
    const LinkFaults lf = link_faults(cfg.roce.retry, faults, step_index, s, f);
    boundary_slow = std::max(boundary_slow, lf.slowdown);
    f.retry_overhead += lf.retry_overhead;
  }

  step.stage_time = sim::SimTime::from_seconds(full_model_step.seconds() /
                                               static_cast<double>(stages))
                        .stretched(slow);
  step.boundary_comm =
      stages > 1 ? p2p_time(cfg.roce, activation_bytes).stretched(boundary_slow)
                 : sim::SimTime::zero();

  // A slot advances every stage by one microbatch; the boundary transfer
  // serializes with the slot (no overlap modelled — conservative).
  step.slot_time = step.stage_time + step.boundary_comm;
  const std::uint64_t slots = cfg.microbatches + stages - 1;
  step.total = step.slot_time * static_cast<std::int64_t>(slots) +
               f.reformation_overhead + f.retry_overhead;

  step.bubble_fraction = static_cast<double>(stages - 1) /
                         static_cast<double>(slots);
  step.utilization = 1.0 - step.bubble_fraction;

  // full_model_step > 0 makes total positive, but guard the divisions so a
  // zero step can never turn into inf/nan rates downstream.
  if (step.total <= sim::SimTime::zero()) return step;
  const double tokens =
      static_cast<double>(tokens_per_microbatch) * cfg.microbatches;
  step.tokens_per_second = tokens / step.total.seconds();

  const double single_chip_s =
      full_model_step.seconds() * static_cast<double>(cfg.microbatches);
  step.speedup_vs_single_chip = single_chip_s / step.total.seconds();
  return step;
}

}  // namespace gaudi::scaleout
