// Ring all-reduce over the in-box RoCE links.
//
// The standard bandwidth-optimal algorithm: P chips, tensor split into P
// chunks; P-1 reduce-scatter steps followed by P-1 all-gather steps, each
// step moving N/P bytes per chip.  `ring_all_reduce` executes the exchange
// *functionally* on host tensors (so numerics are exact and testable) and
// returns the simulated completion time from the link model.
//
// Under faults (roce.hpp) the ring re-forms over the chips that survive the
// step, the slowest (possibly degraded) link paces every ring step, and the
// worst per-link retry chain gates the exchange once: links run and retry
// in parallel.  `step` keys the deterministic fault draws.
#pragma once

#include <cstdint>
#include <vector>

#include "scaleout/roce.hpp"
#include "tensor/tensor.hpp"

namespace gaudi::scaleout {

enum class ReduceOp : std::uint8_t { kSum, kMean };

struct AllReduceResult {
  sim::SimTime duration{};  ///< wall-clock, fault recovery included
  std::uint64_t steps = 0;  ///< ring steps over the survivors
  std::size_t bytes_moved_per_chip = 0;
  std::uint32_t surviving_chips = 0;
  std::vector<std::uint32_t> lost_chips;  ///< original indices, ascending
  FaultStats faults;
};

/// In-place ring all-reduce across `shards` (one tensor per chip, equal
/// shapes).  After the call every shard holds the element-wise sum (or
/// mean) of all inputs.  A single shard completes immediately.  On chip
/// loss the failed chips' shards are dropped (their contribution is lost
/// with them) and `shards` shrinks to the survivors, which hold the exact
/// sum (or mean over the survivor count) of the surviving inputs.
AllReduceResult ring_all_reduce(const RoceConfig& cfg,
                                std::vector<tensor::Tensor>& shards,
                                ReduceOp op = ReduceOp::kSum,
                                const sim::FaultInjector& faults = {},
                                std::uint64_t step = 0);

/// Timing-only variant for paper-scale gradient volumes.  Throws
/// sim::ResourceExhausted when every chip fails.
[[nodiscard]] AllReduceResult ring_all_reduce_time(
    const RoceConfig& cfg, std::size_t bytes, std::uint32_t chips,
    const sim::FaultInjector& faults = {}, std::uint64_t step = 0);

}  // namespace gaudi::scaleout
