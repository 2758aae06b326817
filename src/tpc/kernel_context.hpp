// Per-core execution context handed to TPC kernels.
//
// Kernels express their computation exclusively through these intrinsics.
// Each intrinsic is written once: it charges cycles to its VLIW slot (and
// counts its global-memory bytes), then does its lane math only in a context
// that carries data.  A kernel writes its member body once as a template over
// the context (tpc/kernel.hpp), so the two instantiations cannot drift:
//
//  * DataContext computes on real tensors (functional mode).  An empty span
//    (a phantom tensor) still reads as zeros and swallows stores.
//  * CostContext holds no lanes: its vector type is empty, scalar reads
//    return 0 and it allocates no local memory, but it charges the same
//    slots, counts the same bytes and keeps the local-memory bounds check.
//    Timing mode runs sampled members through it: control flow in our
//    kernels is data-independent, so the cycle count is exact without data.
//    This is how paper-scale configurations are timed without allocating
//    multi-gigabyte attention matrices or computing a single lane.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/chip_config.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"
#include "tensor/dtype.hpp"
#include "tpc/vector_unit.hpp"

namespace gaudi::tpc {

/// The vector register of a cost context: no lanes to move or compute.
struct NoLanes {};

template <bool kData>
class KernelContext {
 public:
  /// Kernel bodies test this with `if constexpr` where they touch lanes
  /// directly instead of through an intrinsic.
  static constexpr bool carries_data = kData;
  using Vec = std::conditional_t<kData, VecF, NoLanes>;

  KernelContext(const sim::TpcConfig& cfg, std::uint32_t core_id,
                std::size_t local_vectors, sim::CounterRng rng)
      : core_id_(core_id), rng_(rng), local_vectors_(local_vectors) {
    GAUDI_CHECK(cfg.f32_lanes() == kLanes,
                "TPC config vector width must match compiled lane count");
    costs_.global_access = cfg.global_access_cycles;
    if constexpr (kData) local_mem_.assign(local_vectors * kLanes, 0.0f);
  }

  [[nodiscard]] std::uint32_t core_id() const { return core_id_; }
  [[nodiscard]] const SlotCycles& cycles() const { return cycles_; }
  /// Bytes moved to/from global memory (full 2048-bit vectors count 256 B;
  /// the HBM bandwidth bound in the cluster uses this).
  [[nodiscard]] std::uint64_t global_bytes() const { return global_bytes_; }
  void reset_cycles() {
    cycles_ = SlotCycles{};
    global_bytes_ = 0;
  }

  // -- Global memory ---------------------------------------------------------
  // Tensor-based addressing: a span of the backing buffer plus an element
  // offset.  `count` lanes are transferred; remaining lanes take `fill`.

  Vec v_ld_g(std::span<const float> buf, std::int64_t offset, int count = kLanes,
             float fill = 0.0f) {
    charge(Slot::kLoad, costs_.global_access);
    global_bytes_ += kLanes * 4;
    Vec r;
    if constexpr (kData) {
      r.lane.fill(fill);
      if (!buf.empty()) {
        check_span(buf.size(), offset, count, "vector global load out of bounds");
        for (int l = 0; l < count; ++l) r.lane[l] = buf[static_cast<std::size_t>(offset) + l];
      }
    }
    return r;
  }

  void v_st_g(std::span<float> buf, std::int64_t offset, const Vec& v,
              int count = kLanes) {
    charge(Slot::kStore, costs_.global_access);
    global_bytes_ += kLanes * 4;
    if constexpr (kData) {
      if (buf.empty()) return;
      check_span(buf.size(), offset, count, "vector global store out of bounds");
      for (int l = 0; l < count; ++l) buf[static_cast<std::size_t>(offset) + l] = v.lane[l];
    }
  }

  /// bf16 global accesses: a 2048-bit vector holds 128 bf16 values, so
  /// moving 64 lanes costs half a full vector access.  Conversion to f32
  /// happens in the load path (the datapath widens for free).
  Vec v_ld_g_bf16(std::span<const std::uint16_t> buf, std::int64_t offset,
                  int count = kLanes, float fill = 0.0f) {
    charge(Slot::kLoad, (costs_.global_access + 1) / 2);
    global_bytes_ += kLanes * 2;
    Vec r;
    if constexpr (kData) {
      r.lane.fill(fill);
      if (!buf.empty()) {
        check_span(buf.size(), offset, count, "bf16 global load out of bounds");
        for (int l = 0; l < count; ++l) {
          r.lane[l] = tensor::bf16_to_f32(buf[static_cast<std::size_t>(offset) + l]);
        }
      }
    }
    return r;
  }

  void v_st_g_bf16(std::span<std::uint16_t> buf, std::int64_t offset, const Vec& v,
                   int count = kLanes) {
    charge(Slot::kStore, (costs_.global_access + 1) / 2);
    global_bytes_ += kLanes * 2;
    if constexpr (kData) {
      if (buf.empty()) return;
      check_span(buf.size(), offset, count, "bf16 global store out of bounds");
      for (int l = 0; l < count; ++l) {
        buf[static_cast<std::size_t>(offset) + l] = tensor::f32_to_bf16(v.lane[l]);
      }
    }
  }

  /// Scalar global load (one element through the Load slot).
  float s_ld_g(std::span<const float> buf, std::int64_t offset) {
    return scalar_load(buf, offset);
  }

  void s_st_g(std::span<float> buf, std::int64_t offset, float v) {
    charge(Slot::kStore, costs_.global_access);
    global_bytes_ += 4;
    if constexpr (kData) {
      if (buf.empty()) return;
      check_span(buf.size(), offset, 1, "scalar global store out of bounds");
      buf[static_cast<std::size_t>(offset)] = v;
    }
  }

  /// Integer global load (token ids etc.).
  std::int32_t i_ld_g(std::span<const std::int32_t> buf, std::int64_t offset) {
    return scalar_load(buf, offset);
  }

  // -- Local memory (per-core vector local memory, single-cycle) -------------

  Vec v_ld_l(std::int64_t vec_index) {
    charge(Slot::kLoad, costs_.local_access);
    const std::size_t base = checked_local(vec_index);
    Vec r;
    if constexpr (kData) {
      for (int l = 0; l < kLanes; ++l) r.lane[l] = local_mem_[base + l];
    }
    return r;
  }

  void v_st_l(std::int64_t vec_index, const Vec& v) {
    charge(Slot::kStore, costs_.local_access);
    const std::size_t base = checked_local(vec_index);
    if constexpr (kData) {
      for (int l = 0; l < kLanes; ++l) local_mem_[base + l] = v.lane[l];
    }
  }

  /// Scalar read from vector local memory.
  float s_ld_l(std::int64_t vec_index, int lane) {
    charge(Slot::kLoad, costs_.local_access);
    return local_scalar(checked_local(vec_index), lane);
  }

  /// Paired scalar read: the 2048-bit local port fetches two 32-bit scalars
  /// in one Load issue — the reuse trick the TPC matmul kernel leans on.
  std::pair<float, float> s_ld_l2(std::int64_t vec_a, int lane_a,
                                  std::int64_t vec_b, int lane_b) {
    charge(Slot::kLoad, costs_.local_access);
    const std::size_t base_a = checked_local(vec_a);
    const std::size_t base_b = checked_local(vec_b);
    return {local_scalar(base_a, lane_a), local_scalar(base_b, lane_b)};
  }

  // -- Vector ALU (VPU slot) --------------------------------------------------

  Vec v_mov(float s) { return vpu(costs_.alu, [s] { return s; }); }
  Vec v_add(const Vec& a, const Vec& b) { return vpu(costs_.alu, [](float x, float y) { return x + y; }, a, b); }
  Vec v_sub(const Vec& a, const Vec& b) { return vpu(costs_.alu, [](float x, float y) { return x - y; }, a, b); }
  Vec v_mul(const Vec& a, const Vec& b) { return vpu(costs_.alu, [](float x, float y) { return x * y; }, a, b); }
  Vec v_max(const Vec& a, const Vec& b) { return vpu(costs_.alu, [](float x, float y) { return x > y ? x : y; }, a, b); }
  Vec v_min(const Vec& a, const Vec& b) { return vpu(costs_.alu, [](float x, float y) { return x < y ? x : y; }, a, b); }
  /// Fused multiply-add: a*b + c — one VPU issue, two FLOPs/lane.
  Vec v_madd(const Vec& a, const Vec& b, const Vec& c) {
    return vpu(costs_.alu, [](float x, float y, float z) { return x * y + z; }, a, b, c);
  }
  /// FMA with a scalar first operand broadcast by the datapath (no extra
  /// splat issue): s*b + c.
  Vec v_madd_s(float s, const Vec& b, const Vec& c) {
    return vpu(costs_.alu, [s](float y, float z) { return s * y + z; }, b, c);
  }
  Vec v_add_s(const Vec& a, float s) { return vpu(costs_.alu, [s](float x) { return x + s; }, a); }
  Vec v_mul_s(const Vec& a, float s) { return vpu(costs_.alu, [s](float x) { return x * s; }, a); }
  Vec v_abs(const Vec& a) { return vpu(costs_.alu, [](float x) { return std::fabs(x); }, a); }
  Vec v_neg(const Vec& a) { return vpu(costs_.alu, [](float x) { return -x; }, a); }
  /// select(a > 0 ? b : c) lane-wise.
  Vec v_sel_gtz(const Vec& a, const Vec& b, const Vec& c) {
    return vpu(costs_.alu, [](float x, float y, float z) { return x > 0.0f ? y : z; }, a, b, c);
  }

  // -- Special functions (multi-cycle VPU sequences) --------------------------

  Vec v_exp(const Vec& a) { return vpu(costs_.special, [](float x) { return std::exp(x); }, a); }
  Vec v_log(const Vec& a) { return vpu(costs_.special, [](float x) { return std::log(x); }, a); }
  Vec v_tanh(const Vec& a) { return vpu(costs_.special, [](float x) { return std::tanh(x); }, a); }
  Vec v_sigmoid(const Vec& a) {
    return vpu(costs_.special, [](float x) { return 1.0f / (1.0f + std::exp(-x)); }, a);
  }
  /// Fused GELU (tanh approximation) — a single special-function-library
  /// instruction sequence on real TPC, cheaper than composing it from
  /// primitive transcendentals.
  Vec v_gelu(const Vec& a) {
    return vpu(costs_.fused_act, [](float x) {
      constexpr float c = 0.7978845608f;  // sqrt(2/pi)
      return 0.5f * x * (1.0f + std::tanh(c * (x + 0.044715f * x * x * x)));
    }, a);
  }

  /// Fused ELU — likewise a library-provided sequence.
  Vec v_elu(const Vec& a, float alpha) {
    return vpu(costs_.fused_act,
               [alpha](float x) { return x > 0.0f ? x : alpha * (std::exp(x) - 1.0f); }, a);
  }

  Vec v_sqrt(const Vec& a) { return vpu(costs_.root, [](float x) { return std::sqrt(x); }, a); }
  Vec v_rsqrt(const Vec& a) { return vpu(costs_.root, [](float x) { return 1.0f / std::sqrt(x); }, a); }
  Vec v_recip(const Vec& a) { return vpu(costs_.root, [](float x) { return 1.0f / x; }, a); }

  /// Uniform random vector in [0,1) — TPC hardware RNG (paper §2.2 lists
  /// "random number production" among TPC features).
  Vec v_rng(std::uint64_t counter) {
    charge(Slot::kVpu, costs_.rng);
    Vec r;
    if constexpr (kData) {
      for (int l = 0; l < kLanes; ++l) {
        r.lane[l] = rng_.uniform(counter * kLanes + static_cast<std::uint64_t>(l));
      }
    }
    return r;
  }

  // -- Cross-lane reductions ---------------------------------------------------
  // Implemented in hardware as a log2(kLanes) shuffle ladder; reductions are
  // the structurally expensive part of softmax on this architecture.

  float v_reduce_add(const Vec& a) {
    charge(Slot::kVpu, costs_.reduce);
    if constexpr (kData) {
      double acc = 0.0;
      for (int l = 0; l < kLanes; ++l) acc += static_cast<double>(a.lane[l]);
      return static_cast<float>(acc);
    } else {
      return 0.0f;
    }
  }
  float v_reduce_max(const Vec& a) {
    charge(Slot::kVpu, costs_.reduce);
    if constexpr (kData) {
      float m = a.lane[0];
      for (int l = 1; l < kLanes; ++l) m = std::max(m, a.lane[l]);
      return m;
    } else {
      return 0.0f;
    }
  }

  // -- Scalar unit (SPU slot) --------------------------------------------------

  float s_add(float a, float b) { charge(Slot::kSpu, costs_.alu); return a + b; }
  float s_mul(float a, float b) { charge(Slot::kSpu, costs_.alu); return a * b; }
  float s_recip(float a) { charge(Slot::kSpu, costs_.root); return 1.0f / a; }
  float s_sqrt(float a) { charge(Slot::kSpu, costs_.root); return std::sqrt(a); }
  float s_exp(float a) { charge(Slot::kSpu, costs_.special); return std::exp(a); }

  /// Loop bookkeeping (address arithmetic, comparisons) rides the SPU slot.
  void s_bookkeeping(std::uint64_t n = 1) { charge(Slot::kSpu, n * costs_.alu); }

 private:
  /// One VPU issue of `cycles`.  Over data, lane l of the result is `f`
  /// applied to lane l of each operand.
  template <typename F, typename... V>
  Vec vpu(std::uint64_t cycles, F f, const V&... operands) {
    charge(Slot::kVpu, cycles);
    Vec r;
    if constexpr (kData) {
      for (int l = 0; l < kLanes; ++l) r.lane[l] = f(operands.lane[l]...);
    }
    return r;
  }

  void charge(Slot slot, std::uint64_t c) {
    switch (slot) {
      case Slot::kLoad: cycles_.load += c; break;
      case Slot::kSpu: cycles_.spu += c; break;
      case Slot::kVpu: cycles_.vpu += c; break;
      case Slot::kStore: cycles_.store += c; break;
    }
  }

  template <typename T>
  T scalar_load(std::span<const T> buf, std::int64_t offset) {
    charge(Slot::kLoad, costs_.global_access);
    global_bytes_ += 4;
    if constexpr (kData) {
      if (buf.empty()) return T{};
      check_span(buf.size(), offset, 1, "scalar global load out of bounds");
      return buf[static_cast<std::size_t>(offset)];
    } else {
      return T{};
    }
  }

  static void check_span(std::size_t size, std::int64_t offset, int count,
                         const char* what) {
    GAUDI_ASSERT(count >= 0 && count <= kLanes, "lane count out of range");
    GAUDI_ASSERT(offset >= 0 && offset + count <= static_cast<std::int64_t>(size), what);
  }

  std::size_t checked_local(std::int64_t vec_index) const {
    GAUDI_CHECK(vec_index >= 0 && static_cast<std::size_t>(vec_index) < local_vectors_,
                "vector local memory access out of allocated range");
    return static_cast<std::size_t>(vec_index) * kLanes;
  }

  float local_scalar(std::size_t base, int lane) const {
    if constexpr (kData) {
      return local_mem_[base + static_cast<std::size_t>(lane)];
    } else {
      return 0.0f;
    }
  }

  std::uint32_t core_id_;
  sim::CounterRng rng_;
  std::size_t local_vectors_;
  IntrinsicCosts costs_{};
  SlotCycles cycles_{};
  std::uint64_t global_bytes_ = 0;
  std::vector<float> local_mem_;  ///< empty in a cost context
};

/// Functional mode: intrinsics compute on real tensors.
using DataContext = KernelContext<true>;
/// Timing mode: intrinsics charge cycles and count bytes, and compute nothing.
using CostContext = KernelContext<false>;

}  // namespace gaudi::tpc
