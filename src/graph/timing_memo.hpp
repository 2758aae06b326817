// Process-wide memo for the timing-only fast path.
//
// A timing-only run (`RunOptions::timing_only` / GAUDI_TIMING_ONLY) exists
// to be repeated: serving sweeps execute the same compiled decode step for
// millions of simulated tokens, and batch experiments re-simulate the same
// cell across seeds and rates.  The first such run of a compiled graph pays
// the real executor + scheduler once and deposits its ProfileResult here,
// keyed by the artifact's structural fingerprint plus the RunOptions that
// affect timing (scheduler policy; the execution seed does not — timing-mode
// durations are analytic functions of shapes).  Every later run of an
// equal-fingerprint artifact is a table lookup — no kernel math, no buffer
// traffic, no re-scheduling.
//
// Higher layers key coarser entries through the same store: the serving
// scheduler's pricer memoizes decode-step and prefill-chunk *makespans*, so
// a shape priced once costs later schedulers one mutex-guarded map probe,
// without even building or compiling the graph.
//
// Below whole graphs, every timing-mode run (timing-only or not) memoizes
// each TPC kernel launch's cost under its exact node key
// (graph/fingerprint.hpp `kernel_cost_key`): layer 1 of a model replays
// layer 0's kernels, and an overlap run replays its barrier run's.
// Functional runs never consult these entries.
//
// The memo is deliberately process-global (guarded by a mutex, safe for the
// batch runner's parallel replicas): the entries are pure functions of their
// keys, so sharing across Runtime instances, threads, and schedulers can
// never change a result — only make it arrive faster.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/time.hpp"
#include "tpc/cluster.hpp"

namespace gaudi::graph {

struct CompiledGraph;
struct ProfileResult;
struct RunOptions;

class TimingMemo {
 public:
  /// The process-wide instance every timing-only run shares.
  [[nodiscard]] static TimingMemo& global();

  /// Full-profile entries (Runtime::run fast path). ------------------------
  [[nodiscard]] std::shared_ptr<const ProfileResult> find_profile(
      const std::string& key);
  void insert_profile(const std::string& key,
                      std::shared_ptr<const ProfileResult> result);

  /// Makespan-only entries (decode-step / prefill-chunk cost tables). ------
  [[nodiscard]] bool find_time(const std::string& key, sim::SimTime* out);
  void insert_time(const std::string& key, sim::SimTime t);

  /// Timing-mode TPC kernel costs, under exact `kernel_cost_key` keys. -----
  [[nodiscard]] bool find_kernel(const std::string& key, tpc::RunResult* out);
  void insert_kernel(const std::string& key, const tpc::RunResult& r);

  /// Cross-process persistence. --------------------------------------------
  /// The makespan entries are pure functions of their fingerprint keys, so
  /// they survive the process: a sweep can deposit its cost tables on disk
  /// and the next process warm-starts instead of re-simulating the first
  /// cell.  Only `times_` persists — full ProfileResults and kernel costs
  /// are cheap to rebuild and expensive to serialize.
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

  /// Lookup counters over profile and makespan entries.  A hit proves the
  /// O(1) path was taken; tests and bench_serving assert on the deltas.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  /// Resident entries (profiles + makespans).
  [[nodiscard]] std::size_t size() const;

  /// The same three counters for kernel-cost entries, kept apart so the
  /// ones above keep meaning whole runs and makespans.
  [[nodiscard]] std::uint64_t kernel_hits() const;
  [[nodiscard]] std::uint64_t kernel_misses() const;
  [[nodiscard]] std::size_t kernel_entries() const;

  /// Drops every entry of all three kinds and zeroes every counter.  Tests,
  /// perfbench and bench_serving call it to make the next pass cold.
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const ProfileResult>> profiles_;
  std::unordered_map<std::string, sim::SimTime> times_;
  std::unordered_map<std::string, tpc::RunResult> kernels_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t kernel_hits_ = 0;
  std::uint64_t kernel_misses_ = 0;
};

/// True when GAUDI_TIMING_ONLY requests the fast path for timing-mode runs.
[[nodiscard]] bool timing_only_from_env();

/// The GAUDI_MEMO_FILE path, or empty when unset.  When set, the global
/// memo auto-loads the file on first access (a damaged file warns once on
/// stderr and starts empty — persistence is an accelerator, never a gate),
/// and the CLI / bench sweeps save back on exit.
[[nodiscard]] std::string memo_file_from_env();

/// Saves the global memo's makespan entries to GAUDI_MEMO_FILE if set.
/// Returns the number of entries written (0 when unset or empty).
std::size_t save_memo_to_env_file();

/// Resolves RunOptions::timing_only: an explicit setting wins; unset defers
/// to GAUDI_TIMING_ONLY, which only ever applies to runs already in timing
/// mode (a functional run's outputs are its contract — the environment
/// cannot silently turn them into phantoms).
[[nodiscard]] bool timing_only_enabled(const RunOptions& opts);

/// Memo key for a full Runtime::run profile of `cg` under `opts`.
[[nodiscard]] std::string timing_memo_key(const CompiledGraph& cg,
                                          const RunOptions& opts);

}  // namespace gaudi::graph
