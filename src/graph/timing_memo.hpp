// Process-wide memo for timing-mode costs.
//
// Timing-mode results are analytic functions of shapes, and the callers that
// produce them repeat themselves: serving sweeps price the same decode-step
// and prefill-chunk shapes for every scheduler, and one model graph launches
// the same TPC kernel once per layer.  The memo holds two kinds of entry:
//
//   - Serving makespans.  When `ServeConfig::timing_only` (or its default,
//     GAUDI_TIMING_ONLY) is on, the serving scheduler's pricer stores each
//     decode-step and prefill-chunk makespan under a key of the model, chip,
//     batch, phase and context bucket, so a shape priced once costs later
//     schedulers one mutex-guarded map probe, without building or compiling
//     the graph.  Only these entries persist across processes
//     (GAUDI_MEMO_FILE).
//   - Kernel costs.  Every timing-mode `Runtime::run` memoizes each TPC
//     kernel launch's cost under its exact node key (graph/fingerprint.hpp
//     `kernel_cost_key`): layer 1 of a model replays layer 0's kernels, and
//     an overlap run replays its barrier run's.  Functional runs never
//     consult these entries.
//
// The memo is deliberately process-global (guarded by a mutex, safe for the
// batch runner's parallel replicas): the entries are pure functions of their
// keys, so sharing across Runtime instances, threads, and schedulers can
// never change a result — only make it arrive faster.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/time.hpp"
#include "tpc/cluster.hpp"

namespace gaudi::graph {

class TimingMemo {
 public:
  /// The process-wide instance every timing-mode caller shares.
  [[nodiscard]] static TimingMemo& global();

  /// Makespan-only entries (decode-step / prefill-chunk cost tables). ------
  [[nodiscard]] bool find_time(const std::string& key, sim::SimTime* out);
  void insert_time(const std::string& key, sim::SimTime t);

  /// Timing-mode TPC kernel costs, under exact `kernel_cost_key` keys. -----
  [[nodiscard]] bool find_kernel(const std::string& key, tpc::RunResult* out);
  void insert_kernel(const std::string& key, const tpc::RunResult& r);

  /// Cross-process persistence. --------------------------------------------
  /// The makespan entries are pure functions of their keys, so they survive
  /// the process: a sweep can deposit its cost tables on disk and the next
  /// process warm-starts instead of re-simulating the first cell.  Only
  /// `times_` persists — kernel costs are cheap to rebuild and expensive to
  /// serialize.
  ///
  /// `save_times` writes a sorted, checksummed text file atomically
  /// (tmp + rename); returns the number of entries written.
  std::size_t save_times(const std::string& path) const;
  /// Loads `path` and merges its entries (existing keys win).  Rejects
  /// damage with the checkpoint error hierarchy: CheckpointVersionSkew for
  /// a foreign magic/version, CheckpointTruncated for a file that ends
  /// early, CheckpointChecksumMismatch for bit rot, CheckpointError for
  /// garbled entries.  Returns the number of entries merged.
  std::size_t load_times(const std::string& path);

  /// Lookup counters over makespan entries.  A hit proves the O(1) path was
  /// taken; tests, perfbench and bench_serving assert on the deltas.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  /// Resident makespan entries.
  [[nodiscard]] std::size_t size() const;

  /// The same three counters for kernel-cost entries, kept apart so the
  /// ones above keep meaning makespans.
  [[nodiscard]] std::uint64_t kernel_hits() const;
  [[nodiscard]] std::uint64_t kernel_misses() const;
  [[nodiscard]] std::size_t kernel_entries() const;

  /// Drops every entry of both kinds and zeroes every counter.  Tests,
  /// perfbench and bench_serving call it to make the next pass cold.
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, sim::SimTime> times_;
  std::unordered_map<std::string, tpc::RunResult> kernels_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t kernel_hits_ = 0;
  std::uint64_t kernel_misses_ = 0;
};

/// True when GAUDI_TIMING_ONLY asks the serving pricer to share makespans
/// through the memo (the default of `ServeConfig::timing_only`).
[[nodiscard]] bool timing_only_from_env();

/// The GAUDI_MEMO_FILE path, or empty when unset.  When set, the global
/// memo auto-loads the file on first access (a damaged file warns once on
/// stderr and starts empty — persistence is an accelerator, never a gate),
/// and the CLI / bench sweeps save back on exit.
[[nodiscard]] std::string memo_file_from_env();

/// Saves the global memo's makespan entries to GAUDI_MEMO_FILE if set.
/// Returns the number of entries written (0 when unset or empty).
std::size_t save_memo_to_env_file();

}  // namespace gaudi::graph
