#include "scaleout/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/error.hpp"

namespace gaudi::scaleout {

sim::SimTime checkpoint_save_time(const CheckpointConfig& cfg) {
  GAUDI_CHECK(cfg.storage_bandwidth_bytes_per_s > 0.0,
              "checkpoint storage bandwidth must be positive");
  return cfg.fixed_overhead +
         sim::SimTime::from_seconds(static_cast<double>(cfg.state_bytes) /
                                    cfg.storage_bandwidth_bytes_per_s);
}

sim::SimTime checkpoint_restore_time(const CheckpointConfig& cfg) {
  // Reads run at the same sustained bandwidth as writes in this model.
  return checkpoint_save_time(cfg);
}

const char* recovery_policy_name(RecoveryPolicy p) {
  switch (p) {
    case RecoveryPolicy::kNone: return "none";
    case RecoveryPolicy::kFixedInterval: return "fixed-interval";
    case RecoveryPolicy::kYoungDaly: return "young-daly";
  }
  return "?";
}

std::uint64_t young_daly_interval_steps(sim::SimTime step_time,
                                        sim::SimTime save_time,
                                        double mtbf_steps) {
  GAUDI_CHECK(step_time > sim::SimTime::zero(), "step time must be positive");
  GAUDI_CHECK(mtbf_steps > 0.0, "MTBF must be positive");
  const double mtbf_s = mtbf_steps * step_time.seconds();
  const double w_opt = std::sqrt(2.0 * save_time.seconds() * mtbf_s);
  const auto steps =
      static_cast<std::uint64_t>(std::llround(w_opt / step_time.seconds()));
  return std::max<std::uint64_t>(1, steps);
}

std::string to_string(const TrainingRunReport& r) {
  std::ostringstream os;
  os << "finished=" << (r.finished ? 1 : 0) << " steps=" << r.useful_steps
     << " recomputed=" << r.recomputed_steps
     << " failures=" << r.failures << " checkpoints=" << r.checkpoints
     << " restores=" << r.restores << " interval=" << r.interval
     << " total_ps=" << r.total_time.ps() << " goodput_pct="
     << static_cast<std::int64_t>(r.goodput * 10000.0 + 0.5);
  return os.str();
}

TrainingRunReport resilient_training_run(const TrainingRunConfig& cfg,
                                         const sim::FaultInjector& faults) {
  GAUDI_CHECK(cfg.steps >= 1, "run needs at least one step");
  GAUDI_CHECK(cfg.step_time > sim::SimTime::zero(),
              "step time must be positive");
  GAUDI_CHECK(cfg.chips >= 1, "run needs at least one chip");

  const sim::SimTime save = checkpoint_save_time(cfg.checkpoint);
  const sim::SimTime restore = checkpoint_restore_time(cfg.checkpoint);

  TrainingRunReport rep;
  switch (cfg.policy) {
    case RecoveryPolicy::kNone:
      rep.interval = 0;
      break;
    case RecoveryPolicy::kFixedInterval:
      GAUDI_CHECK(cfg.checkpoint_interval >= 1,
                  "fixed-interval policy needs interval >= 1");
      rep.interval = cfg.checkpoint_interval;
      break;
    case RecoveryPolicy::kYoungDaly:
      rep.interval =
          young_daly_interval_steps(cfg.step_time, save, cfg.mtbf_steps);
      break;
  }

  // `attempt` counts wall-clock step executions (useful or recomputed), so
  // fault draws advance monotonically: a step that failed once is not
  // identically doomed when it re-runs after the rollback.
  std::uint64_t completed = 0;
  std::uint64_t last_checkpoint = 0;
  std::uint64_t attempt = 0;
  const std::uint64_t attempt_budget = cfg.steps * 100 + 10000;

  while (completed < cfg.steps) {
    if (attempt >= attempt_budget) {
      // Restart-from-zero under a short MTBF never converges; report the
      // truncated attempt instead of spinning forever.
      rep.finished = false;
      break;
    }
    const std::uint64_t site_step = attempt++;

    // Failure check: any chip dying kills the synchronous step.
    if (!faults.chips_lost(site_step, cfg.chips).empty()) {
      ++rep.failures;
      ++rep.restores;
      // The failing step's partial work is lost, detected at step granularity.
      rep.total_time += cfg.step_time;
      rep.recompute_time += cfg.step_time;
      rep.recomputed_steps += completed - last_checkpoint;
      completed = last_checkpoint;
      const sim::SimTime recovery =
          cfg.restart_overhead +
          (rep.interval > 0 && rep.checkpoints > 0 ? restore
                                                   : sim::SimTime::zero());
      rep.total_time += recovery;
      rep.restore_time += recovery;
      continue;
    }

    // Step executes (no chip died, so every chip may straggle); stragglers
    // and HBM pressure stretch it.
    sim::SimTime dur = cfg.step_time.stretched(
        faults.slowest_straggler(site_step, cfg.chips, /*lost=*/{}));
    rep.stall_time += dur - cfg.step_time;
    if (faults.fires(sim::FaultKind::kHbmPressure,
                     sim::FaultInjector::site(site_step, 0))) {
      rep.stall_time += faults.profile().hbm_pressure_stall;
      dur += faults.profile().hbm_pressure_stall;
    }
    rep.total_time += dur;
    ++completed;

    // Checkpoint per policy (skipping a useless snapshot at the finish line).
    if (rep.interval > 0 && completed % rep.interval == 0 &&
        completed < cfg.steps) {
      ++rep.checkpoints;
      rep.checkpoint_time += save;
      rep.total_time += save;
      last_checkpoint = completed;
    }
  }

  rep.useful_steps = rep.finished ? cfg.steps : completed;
  // Everything executed = useful + recomputed; compute_time is the useful
  // share at nominal step cost (stall stretch is accounted separately).
  rep.compute_time = cfg.step_time * static_cast<std::int64_t>(rep.useful_steps);
  rep.recompute_time +=
      cfg.step_time * static_cast<std::int64_t>(rep.recomputed_steps);
  if (rep.total_time > sim::SimTime::zero()) {
    rep.goodput = rep.compute_time.seconds() / rep.total_time.seconds();
  }
  return rep;
}

}  // namespace gaudi::scaleout
