#include "scaleout/data_parallel.hpp"

#include "sim/error.hpp"

namespace gaudi::scaleout {

DataParallelStep data_parallel_step(const DataParallelConfig& cfg,
                                    sim::SimTime single_chip_step,
                                    std::size_t grad_bytes,
                                    std::int64_t tokens_per_chip,
                                    const sim::FaultInjector& faults,
                                    std::uint64_t step_index) {
  GAUDI_CHECK(cfg.chips >= 1, "need at least one chip");
  GAUDI_CHECK(single_chip_step > sim::SimTime::zero(),
              "single-chip step time must be positive");
  GAUDI_CHECK(cfg.overlappable_fraction >= 0.0 && cfg.overlappable_fraction <= 1.0,
              "overlappable_fraction must lie in [0, 1]");

  // Gradient sync first: its chip-loss draw decides who survives the step.
  const AllReduceResult sync = ring_all_reduce_time(
      cfg.roce, grad_bytes, cfg.chips, faults, step_index);
  DataParallelStep step;
  step.chips_used = sync.surviving_chips;
  step.faults = sync.faults;
  step.compute = single_chip_step.stretched(faults.slowest_straggler(
      step_index, cfg.chips, sync.lost_chips, &step.faults.stragglers));
  step.straggler_stall = step.compute - single_chip_step;
  if (faults.fires(sim::FaultKind::kHbmPressure,
                   sim::FaultInjector::site(step_index, 0))) {
    step.hbm_stall = faults.profile().hbm_pressure_stall;
  }
  step.compute += step.hbm_stall;
  step.comm = sync.duration;

  if (cfg.overlap_comm && step.chips_used > 1) {
    // Buckets sync during the backward window; only the excess is exposed.
    // Recovery (retries, degradation, re-formation) stalls the bucket
    // schedule, so only the fault-free exchange can hide.
    const sim::SimTime window = sim::SimTime::from_seconds(
        step.compute.seconds() * cfg.overlappable_fraction);
    const sim::SimTime overhead = sync.faults.overhead();
    const sim::SimTime clean = step.comm - overhead;
    step.exposed_comm =
        (clean > window ? clean - window : sim::SimTime::zero()) + overhead;
  } else {
    step.exposed_comm = step.comm;
  }
  step.total = step.compute + step.exposed_comm;

  // The checks above keep total positive, but guard the divisions anyway so
  // a zero step can never turn into inf/nan rates downstream.
  if (step.total <= sim::SimTime::zero()) return step;
  const double tokens = static_cast<double>(tokens_per_chip) * step.chips_used;
  step.tokens_per_second = tokens / step.total.seconds();
  const double single_rate =
      static_cast<double>(tokens_per_chip) / single_chip_step.seconds();
  step.scaling_efficiency =
      step.tokens_per_second / (single_rate * static_cast<double>(cfg.chips));
  return step;
}

}  // namespace gaudi::scaleout
