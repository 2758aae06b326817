// Process-wide memo for the serving pricer's makespans.
//
// Serving sweeps price the same decode-step and prefill-chunk shapes for
// every scheduler.  When `ServeConfig::timing_only` (or its default,
// GAUDI_TIMING_ONLY) is on, the serving scheduler's pricer stores each
// makespan under a key of the model, chip, batch, phase and context bucket
// (graph/fingerprint.hpp), so a shape priced once costs later schedulers one
// mutex-guarded map probe, without building or compiling the graph.  With
// GAUDI_MEMO_FILE set, the entries persist across processes.  A graph run
// never reads or writes the memo.
//
// The memo is deliberately process-global (guarded by a mutex, safe for the
// batch runner's parallel replicas): the entries are pure functions of their
// keys, so sharing across schedulers, threads and processes can never change
// a result — only make it arrive faster.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/time.hpp"

namespace gaudi::graph {

class TimingMemo {
 public:
  /// The process-wide instance every pricer shares.
  [[nodiscard]] static TimingMemo& global();

  /// Makespan entries (decode-step / prefill-chunk cost tables). ----------
  [[nodiscard]] bool find_time(const std::string& key, sim::SimTime* out);
  void insert_time(const std::string& key, sim::SimTime t);

  /// Cross-process persistence. --------------------------------------------
  /// The entries are pure functions of their keys, so they survive the
  /// process: a sweep can deposit its cost tables on disk and the next
  /// process warm-starts instead of re-simulating the first cell.
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

  /// Lookup counters.  A hit proves the O(1) path was taken; tests,
  /// perfbench and bench_serving assert on the deltas.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  /// Resident entries.
  [[nodiscard]] std::size_t size() const;

  /// Drops every entry and zeroes both counters.  Tests, perfbench and
  /// bench_serving call it to make the next pass cold.
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, sim::SimTime> times_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
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
