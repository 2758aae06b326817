// Host-driven training loop with dynamic loss scaling for bf16 training.
//
// Gaudi's native training dtype is bf16 (§2 of the paper); bf16 keeps f32's
// exponent range but only 8 mantissa bits, so tiny gradients collapse to
// denormals/zero and transient corruption (an SDC exponent-bit flip, a
// diverging step) can blow a gradient past the finite range.  The standard
// remedy is dynamic loss scaling: differentiate S * loss so gradients ride
// S times higher, check the scaled gradients for overflow before the
// update, unscale and apply on clean steps, and skip + back off S on dirty
// ones.  `GradScaler` is the scale state machine; `train_language_model`
// runs the full loop on the simulator — forward/backward graph, host-side
// gradient sweep (tensor::ops::numerics_sweep), and a standalone update
// graph (nn::build_update_graph) so the update can be withheld when the
// gradients are unusable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/runtime.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"

namespace gaudi::nn {

struct GradScalerConfig {
  float init_scale = 65536.0f;  ///< 2^16, the customary starting point
  float growth_factor = 2.0f;   ///< scale-up multiplier on a long clean run
  float backoff_factor = 0.5f;  ///< scale-down multiplier on overflow
  /// Consecutive clean steps before the scale grows (hysteresis: growing on
  /// every clean step would oscillate against the overflow ceiling).
  std::int32_t growth_interval = 50;
  float min_scale = 1.0f;
  float max_scale = 16777216.0f;  ///< 2^24
};

/// Dynamic loss-scale state machine: scale-up after `growth_interval`
/// consecutive clean steps, scale-down and skip the update on overflow.
class GradScaler {
 public:
  explicit GradScaler(GradScalerConfig cfg = {})
      : cfg_(cfg), scale_(cfg.init_scale) {}

  [[nodiscard]] float scale() const { return scale_; }
  [[nodiscard]] std::int64_t skipped_steps() const { return skipped_; }
  [[nodiscard]] std::int32_t clean_streak() const { return streak_; }
  [[nodiscard]] const GradScalerConfig& config() const { return cfg_; }

  /// Advances the state machine once per step.  `overflow` is whether any
  /// gradient came back NaN/Inf (or beyond the bf16 finite range when
  /// gradients are stored as bf16).  Returns true when the step should
  /// apply its update; false when it must be skipped.
  bool update(bool overflow);

  /// Restores the full state machine from a checkpoint.  Together with
  /// scale()/clean_streak()/skipped_steps() this makes the scaler round-trip
  /// exactly: restore(scale(), clean_streak(), skipped_steps()) is an
  /// identity.  Values are validated against the configured ranges.
  void restore(float scale, std::int32_t streak, std::int64_t skipped);

 private:
  GradScalerConfig cfg_;
  float scale_;
  std::int32_t streak_ = 0;
  std::int64_t skipped_ = 0;
};

struct TrainOptions {
  LmConfig model = LmConfig::tiny(LmArch::kGpt2);
  OptimizerConfig optimizer{};
  std::int32_t steps = 4;
  /// Dynamic loss scaling on/off.  Off differentiates the raw loss and
  /// applies every update unconditionally — the unprotected baseline.
  bool loss_scaling = true;
  GradScalerConfig scaler{};
  /// Emulate bf16 gradient storage: gradients round-trip through bf16
  /// before the overflow check and the unscale (master weights stay f32, as
  /// in mixed-precision practice).
  bool bf16_grads = true;
  std::uint64_t seed = 0x7A11;
  /// Per-run options (guard policy, fault injector, validation, policy).
  /// `mode` is forced functional, `fault_epoch` is set per step, and
  /// `corrupt_value` is driven by `corrupt_grad_step`.
  graph::RunOptions run{};
  /// Test hook: at this step, the first parameter gradient has element 0
  /// overwritten with a quiet NaN as it retires (deterministic stand-in for
  /// an SDC hit).  -1 disables.
  std::int32_t corrupt_grad_step = -1;

  /// Crash-consistent checkpointing (scaleout/snapshot.hpp).  Empty
  /// `checkpoint_dir` disables it entirely.  With a directory set, a
  /// snapshot of the complete training state lands every `checkpoint_every`
  /// steps and always after the final step.
  std::string checkpoint_dir;
  std::int32_t checkpoint_every = 1;
  /// Resume from the newest *valid* snapshot in `checkpoint_dir` before
  /// training.  An empty or nonexistent directory is a clean fresh start
  /// (noted in TrainResult::resume_report); a snapshot whose fingerprint
  /// disagrees with this configuration throws CheckpointShapeMismatch.
  bool resume = false;
  /// Draw a fresh token batch per step (counter streams keyed by the step
  /// index) instead of one fixed batch, making the checkpointed data-order
  /// cursor load-bearing.  Off by default to preserve the historical loop.
  bool resample_data = false;
};

struct TrainStepInfo {
  float loss = 0.0f;    ///< unscaled loss observed this step
  float scale = 1.0f;   ///< loss scale the step ran with
  bool applied = true;  ///< false: overflow detected, update skipped
  sim::NumericsStats grad_stats{};  ///< merged sweep over all gradients
};

struct TrainResult {
  std::vector<TrainStepInfo> steps;
  std::int64_t skipped_steps = 0;
  float final_scale = 1.0f;
  float final_loss = 0.0f;
  /// Final loss is finite — the headline robustness outcome.
  bool finite = false;
  /// Bit flips the fault injector landed across all runs.
  std::size_t sdc_injections = 0;
  /// Guard anomalies collected across all runs (kWarn only).
  std::size_t anomalies = 0;
  /// Step count the run resumed from (-1: fresh start).  A resumed result
  /// covers only the steps it executed; the restored counters above include
  /// the pre-crash history, so the totals match the uninterrupted run.
  std::int64_t resumed_from_step = -1;
  /// Snapshots written by this run.
  std::uint64_t checkpoints_saved = 0;
  /// Manifest path of the newest snapshot this run wrote (empty if none).
  std::string last_checkpoint;
  /// Structured resume report: the snapshot scan (restored step, every
  /// rejected candidate with its cause) or the fresh-start note.
  std::string resume_report;
};

/// Runs `opts.steps` full training iterations of the configured model on
/// the simulator and reports per-step losses, skip decisions, and the final
/// scale.  Throws sim::NumericsError if a guarded run traps.
[[nodiscard]] TrainResult train_language_model(
    const TrainOptions& opts = {},
    const sim::ChipConfig& chip = sim::ChipConfig::hls1());

}  // namespace gaudi::nn
