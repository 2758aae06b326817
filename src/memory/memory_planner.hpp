// Static (compile-time) HBM planning.
//
// The graph compiler replaces per-run refcounted allocation with a plan
// computed once: every device buffer gets a liveness interval in execution
// steps and a fixed byte offset assigned by a greedy first-fit free list, so
// buffers whose lifetimes do not overlap reuse the same bytes.  The dynamic
// `DeviceAllocator` stays as a run-time cross-check — within each step the
// planner performs allocations before frees, mirroring the allocator's
// per-node order, which makes the planned occupancy peak structurally equal
// to the allocator's observed peak.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/error.hpp"

namespace gaudi::memory {

/// Liveness of one device buffer, in execution-step numbers (the compiler
/// uses node ids; any monotone step numbering works).
struct BufferInterval {
  static constexpr std::int64_t kPreGraph = -1;
  static constexpr std::int64_t kNeverFreed =
      std::numeric_limits<std::int64_t>::max();

  /// Step whose allocations include this buffer; kPreGraph for buffers
  /// resident before the first step (graph inputs and parameters).
  std::int64_t def = 0;
  /// Step whose frees include this buffer; kNeverFreed for buffers that
  /// live to the end of the run (inputs, parameters, graph outputs).
  std::int64_t free = kNeverFreed;
  std::size_t bytes = 0;
  std::string tag;  ///< names the buffer in ResourceExhausted messages
};

/// One planned buffer: a fixed [offset, offset + bytes) address range.
struct PlannedBuffer {
  std::size_t offset = 0;
  std::size_t bytes = 0;
};

struct MemoryPlan {
  /// Parallel to the intervals handed to plan_memory.
  std::vector<PlannedBuffer> buffers;
  /// Peak liveness-weighted occupancy — equals DeviceAllocator::peak() for
  /// the same allocation/free schedule by construction.
  std::size_t peak_bytes = 0;
  /// Arena extent after offset assignment (>= peak_bytes; the excess is
  /// first-fit fragmentation).
  std::size_t arena_bytes = 0;
  /// Sum of all buffer sizes: what a reuse-free layout would need.
  std::size_t total_bytes = 0;

  [[nodiscard]] std::size_t reuse_saved_bytes() const {
    return total_bytes > arena_bytes ? total_bytes - arena_bytes : 0;
  }
};

/// Assigns a static offset to every interval.  Buffers are placed in the
/// order they appear within each step; bytes freed in *earlier* steps are
/// reusable, bytes freed in the same step are not (allocations precede
/// frees, matching the dynamic allocator).  When `capacity_bytes` is
/// nonzero, throws sim::ResourceExhausted as soon as occupancy would exceed
/// it — the failure the dynamic allocator raises at run time, moved to
/// compile time.
[[nodiscard]] MemoryPlan plan_memory(const std::vector<BufferInterval>& intervals,
                                     std::size_t capacity_bytes = 0);

}  // namespace gaudi::memory
