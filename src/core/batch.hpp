// Declarative batch-experiment runner.
//
// A plain-text config describes a grid of simulator runs; the runner
// expands it, executes every replica — in parallel on a host thread pool
// when asked — and funnels every result through one StatsSink, so a whole
// paper-style sweep (a serving rate × batch grid, a layer-shape study, an
// engine comparison) is reproduced by a single `gaudisim_cli batch` line
// with byte-deterministic CSV output.
//
// Grammar (line-oriented; '#' starts a comment, blank lines ignored):
//
//   experiment <name>
//     command <serve|serve-cluster|profile-layer|profile-model|mme-vs-tpc>
//     set <key> <value>          # fixed parameter (CLI option spelling)
//     sweep <key> <v1> <v2> ...  # one grid axis; axes multiply
//     seeds <s1> <s2> ...        # workload seeds (0x... accepted)
//     repeats <n>                # replicas per seed: seed+0 .. seed+n-1
//     timing-only <on|off>       # serve/serve-cluster only; default: env
//   end
//
// A key is an option of the command without its dashes, parsed and checked
// by the same function the CLI command calls (core/options.hpp), so a bad
// value fails naming `--key`.  `seed` and `timing-only` are not keys: the
// `seeds` and `timing-only` directives set them.  `timing-only` chooses
// whether serving cells share step makespans through the process-wide
// graph::TimingMemo; an experiment of any other command that gives it is
// rejected.  mme-vs-tpc takes one `size` (and `batch`) per cell where the
// CLI takes a --sizes list.
//
// Each point of the sweep grid is one *cell*; each cell runs once per
// (seed, repeat) pair with effective seed `seed + repeat`, and the cell's
// replicas aggregate to n/mean/p50/p99 per metric.  Replicas execute on a
// sim::ThreadPool and merge in replica order, so the report is identical
// however many worker threads ran it.  Timing costs flow through the
// process-wide graph::TimingMemo: serving replicas of the same model with
// timing-only on build and schedule each step shape once.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/stats_sink.hpp"

namespace gaudi::core {

struct BatchExperiment {
  std::string name;
  std::string command;
  /// Fixed key=value parameters, in file order.
  std::vector<std::pair<std::string, std::string>> fixed;
  /// Sweep axes, in file order; the grid is their cartesian product.
  std::vector<std::pair<std::string, std::vector<std::string>>> sweeps;
  std::vector<std::uint64_t> seeds{0x5E21E};
  std::int64_t repeats = 1;
  /// serve and serve-cluster cells only; unset defers to ServeConfig's
  /// GAUDI_TIMING_ONLY fallback.
  std::optional<bool> timing_only{};
};

struct BatchConfig {
  std::vector<BatchExperiment> experiments;
};

/// Parses the grammar above.  Throws sim::InvalidArgument naming the line
/// of the first error (unknown directive, unknown command, empty sweep,
/// duplicate key, missing end, ...).
[[nodiscard]] BatchConfig parse_batch_config(std::istream& in);

/// Reads and parses `path`; throws sim::IoError when unreadable.
[[nodiscard]] BatchConfig load_batch_config(const std::string& path);

struct BatchOptions {
  /// Worker threads for replica execution; 0 means one per CPU this process
  /// may use, 1 runs the replicas serially on the caller (the output is
  /// identical either way).
  std::size_t threads = 0;
  /// Explicit timing-only override for experiments that do not set their
  /// own; unset keeps each experiment's (or the environment's) choice.
  std::optional<bool> timing_only{};
};

struct BatchRunResult {
  std::string csv;    ///< StatsSink::csv() — the byte-deterministic artifact
  std::string table;  ///< StatsSink::table()
  std::size_t cells = 0;
  std::size_t runs = 0;
};

/// Expands and executes `cfg`.  Deterministic: same config, same bytes out,
/// regardless of `opts.threads`.
[[nodiscard]] BatchRunResult run_batch(const BatchConfig& cfg,
                                       const BatchOptions& opts = {});

}  // namespace gaudi::core
