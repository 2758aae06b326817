// The TPC cluster: eight cores executing one kernel cooperatively.
//
// Index-space members are distributed cyclically across cores.  Two
// execution modes run the same kernel body (tpc/kernel.hpp):
//
//  * kFunctional — every member executes over a DataContext with real data;
//    cycle counts are exact and outputs are valid.  Host threads
//    parallelize across cores.
//  * kTiming — a small deterministic sample of members per core runs over a
//    CostContext, which charges every intrinsic and computes nothing;
//    per-member cycles are extrapolated to the full space.  Outputs are not
//    produced.  This is how paper-scale shapes (3.2-G-element attention
//    matrices) are timed.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/chip_config.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "tpc/kernel.hpp"

namespace gaudi::tpc {

enum class ExecMode : std::uint8_t { kFunctional, kTiming };

/// Outcome of one kernel launch on the cluster.
struct RunResult {
  sim::Cycles cycles = 0;      ///< elapsed cluster cycles (max over cores, incl. launch)
  sim::SimTime duration{};     ///< max(compute time, HBM streaming time)
  SlotCycles slot_totals{};    ///< issued cycles summed over all cores
  std::uint64_t members = 0;   ///< index-space size
  std::uint64_t flops = 0;     ///< kernel-reported FLOPs
  std::uint64_t global_bytes = 0;  ///< HBM traffic across the cluster
  bool memory_bound = false;   ///< HBM streaming time exceeded compute time
  bool extrapolated = false;   ///< true when produced by kTiming sampling

  [[nodiscard]] double tflops() const {
    const double s = duration.seconds();
    return s > 0 ? static_cast<double>(flops) / s * 1e-12 : 0.0;
  }
};

class TpcCluster {
 public:
  /// `hbm_bandwidth` bounds streaming kernels: the eight cores' aggregate
  /// global-access rate can exceed what HBM sustains, so a kernel's duration
  /// is max(compute cycles, bytes / bandwidth).
  explicit TpcCluster(const sim::TpcConfig& cfg, sim::CounterRng rng = {},
                      double hbm_bandwidth_bytes_per_s = 1.0e12)
      : cfg_(cfg), rng_(rng), hbm_bandwidth_(hbm_bandwidth_bytes_per_s) {}

  [[nodiscard]] const sim::TpcConfig& config() const { return cfg_; }

  /// Launches `kernel` across the cluster.  Throws sim::ResourceExhausted if
  /// the kernel's local-memory requirement exceeds the per-core bank.
  RunResult run(const Kernel& kernel, ExecMode mode) const;

  /// Members sampled per core in kTiming mode (first/middle/last).
  static constexpr std::int64_t kTimingSamples = 3;

 private:
  sim::TpcConfig cfg_;
  sim::CounterRng rng_;
  double hbm_bandwidth_;
};

}  // namespace gaudi::tpc
