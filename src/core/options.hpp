// Options of the commands both front-ends run.
//
// `gaudisim_cli serve ...` and a batch cell with `command serve` read their
// options through the functions below, and so do serve-cluster,
// profile-layer, profile-model, train and train-resilient.  Each option is
// parsed and checked in exactly one place, so a setting means the same thing
// from argv and from a cell's `set`/`sweep` line (wrapped by
// ArgParser::from_pairs), and a bad value fails the same way, naming the
// option as `--name`.  Callers finish with ArgParser::check_unused().
//
// `seed` and `timing-only` are read here too, but a batch cell cannot set
// them: the runner's `seeds` and `timing-only` directives own them and
// overwrite what these functions return.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/experiments.hpp"
#include "nn/train.hpp"
#include "scaleout/checkpoint.hpp"
#include "serve/cluster.hpp"
#include "serve/workload.hpp"
#include "sim/fault.hpp"

namespace gaudi::core {

/// profile-layer: --attention --feature-map --seq --batch --heads
/// --head-dim --ffn --policy.
[[nodiscard]] LayerExperiment parse_layer_experiment(const ArgParser& args);

/// profile-model: --arch --seq --batch --layers --policy.
struct ModelExperiment {
  nn::LmConfig model;
  graph::SchedulePolicy policy = graph::SchedulePolicy::kBarrier;
};
[[nodiscard]] ModelExperiment parse_model_experiment(const ArgParser& args);

/// --optimizer sgd|sgd_momentum|adam (default sgd).
[[nodiscard]] nn::OptimizerKind parse_optimizer(const ArgParser& args);

/// train: --arch --steps --optimizer --no-loss-scaling --no-bf16-grads
/// --init-scale --growth-interval --corrupt-step --seed --checkpoint-dir
/// --checkpoint-every --resume --resample-data.  The CLI adds the guard and
/// fault options the profile commands share.
[[nodiscard]] nn::TrainOptions parse_train_options(const ArgParser& args);

/// --faults on|off, --fault-seed N, --mtbf N.  The switch alone turns
/// injection on; --mtbf only sets the rate (absent or 0: the stress
/// profile) and --fault-seed only the stream.  Both are checked with the
/// switch off too, but then have no effect.
struct FaultOptions {
  std::uint64_t seed = 0xFA517;
  sim::FaultProfile profile{};  ///< disabled unless --faults is on
};
/// `chips` splits the --mtbf rate: 8 for a training box, 1 for a serving
/// replica, whose MTBF counts iterations.
[[nodiscard]] FaultOptions parse_fault_options(const ArgParser& args,
                                               std::uint32_t chips);

/// train-resilient: --steps --step-ms --chips --mtbf --recovery --interval
/// --fault-seed.  Faults always fire at the --mtbf rate.  --interval is
/// checked under every policy but takes effect only for `fixed` (the rule
/// --mtbf and --fault-seed follow without --faults).
struct ResilientTrainingOptions {
  scaleout::TrainingRunConfig config;
  sim::FaultInjector faults;
};
[[nodiscard]] ResilientTrainingOptions parse_resilient_training(
    const ArgParser& args);

/// The request stream of both serving commands: seeded Poisson arrivals,
/// or the trace named by --arrivals.
struct StreamOptions {
  serve::StreamConfig stream;
  std::string arrivals;  ///< "" = Poisson
  [[nodiscard]] std::vector<serve::Request> requests() const;
};

struct ServeOptions : StreamOptions {
  serve::ServeConfig config;
};

struct ServeClusterOptions : StreamOptions {
  serve::ClusterConfig config;
};

/// serve: the stream, scheduler and fault options.
[[nodiscard]] ServeOptions parse_serve_options(const ArgParser& args);

/// serve-cluster: serve's options, with faults drawn per replica, plus the
/// router's.
[[nodiscard]] ServeClusterOptions parse_serve_cluster_options(
    const ArgParser& args);

}  // namespace gaudi::core
