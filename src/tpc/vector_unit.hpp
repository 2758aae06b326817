// TPC vector datapath types.
//
// The TPC's SIMD mechanism is 2048 bits wide (paper §2.2): 64 f32 lanes.
// `VecF` is a data context's register value type; all operations on it go
// through the KernelContext so that every instruction is charged to its VLIW
// slot.
#pragma once

#include <array>
#include <cstdint>

namespace gaudi::tpc {

/// SIMD width in f32 lanes (2048-bit vectors).
inline constexpr int kLanes = 64;

/// One 2048-bit vector register holding 64 f32 values.
struct VecF {
  std::array<float, kLanes> lane{};

  [[nodiscard]] static VecF splat(float v) {
    VecF r;
    r.lane.fill(v);
    return r;
  }
};

/// The four functional slots of the TPC VLIW instruction word (paper §2.2).
enum class Slot : std::uint8_t {
  kLoad,   ///< memory loading, value movements/settings
  kSpu,    ///< scalar computations
  kVpu,    ///< vector computations
  kStore,  ///< memory storage, value movements/settings
};

/// Per-slot issued-cycle counters for one stretch of execution.  The VLIW
/// machine issues all four slots each cycle, so with a well-pipelined kernel
/// the elapsed cycles of a member are the max over slots.
struct SlotCycles {
  std::uint64_t load = 0;
  std::uint64_t spu = 0;
  std::uint64_t vpu = 0;
  std::uint64_t store = 0;

  [[nodiscard]] std::uint64_t elapsed() const {
    std::uint64_t m = load;
    if (spu > m) m = spu;
    if (vpu > m) m = vpu;
    if (store > m) m = store;
    return m;
  }
  [[nodiscard]] std::uint64_t total_issued() const { return load + spu + vpu + store; }

  SlotCycles& operator+=(const SlotCycles& o) {
    load += o.load;
    spu += o.spu;
    vpu += o.vpu;
    store += o.store;
    return *this;
  }
  friend bool operator==(const SlotCycles&, const SlotCycles&) = default;
};

/// Instruction cost table (cycles).  Simple ALU ops are single-issue; the
/// special functions (exp, log, tanh, ...) are multi-instruction software
/// sequences on the VPU — the paper's observation that "the calculation of
/// the softmax operation itself is relatively complicated, and it involves
/// exponential operations and reduction operations" is a direct consequence
/// of these costs.  Cross-lane reductions cost a log2(kLanes) shuffle+op
/// ladder, which is what makes reductions "not well-suited for SIMD
/// architectures like TPC".
struct IntrinsicCosts {
  std::uint64_t global_access = 4;  ///< per 2048-bit global load/store (paper §2.2)
  std::uint64_t local_access = 1;   ///< local memory is single-cycle (paper §2.2)
  std::uint64_t alu = 1;            ///< add/sub/mul/min/max/fma/select/...
  std::uint64_t special = 16;       ///< exp/log/tanh/sigmoid/erf software sequence
  std::uint64_t fused_act = 10;     ///< fused activation instructions (GELU, ELU)
                                    ///< provided by the TPC special-function
                                    ///< library with pipelined throughput
  std::uint64_t root = 8;           ///< sqrt/rsqrt/recip iterative sequence
  std::uint64_t reduce = 12;        ///< cross-lane reduce: 6 shuffle+op stages
  std::uint64_t rng = 4;            ///< hardware random number production
};

}  // namespace gaudi::tpc
