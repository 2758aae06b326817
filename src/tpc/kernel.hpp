// TPC kernel interface.
//
// A kernel is the device-side half of a TPC program (paper §2.2: "A TPC
// program is composed of host glue code and a TPC kernel").  Kernels declare
// an index space and write the instruction stream of a single member once,
// as a template over the context (KernelBody); the cluster runs it through a
// DataContext in functional mode and through a CostContext, which computes
// nothing, when it samples members in timing mode.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "tensor/tensor.hpp"
#include "tpc/index_space.hpp"
#include "tpc/kernel_context.hpp"

namespace gaudi::tpc {

/// Read-only f32 view of a tensor; empty for phantom tensors (timing mode),
/// which a DataContext reads as zeros.
[[nodiscard]] inline std::span<const float> ro(const tensor::Tensor& t) {
  return t.defined() ? t.f32() : std::span<const float>{};
}
/// Mutable f32 view; empty for phantom tensors.
[[nodiscard]] inline std::span<float> rw(const tensor::Tensor& t) {
  return t.defined() ? t.f32_mut() : std::span<float>{};
}
/// Read-only i32 view; empty for phantom tensors.
[[nodiscard]] inline std::span<const std::int32_t> ro_i32(const tensor::Tensor& t) {
  return t.defined() ? t.i32() : std::span<const std::int32_t>{};
}
/// bf16 views; empty for phantom tensors.
[[nodiscard]] inline std::span<const std::uint16_t> ro_bf16(const tensor::Tensor& t) {
  return t.defined() ? t.bf16() : std::span<const std::uint16_t>{};
}
[[nodiscard]] inline std::span<std::uint16_t> rw_bf16(const tensor::Tensor& t) {
  if (!t.defined()) return {};
  GAUDI_CHECK(t.dtype() == tensor::DType::BF16, "tensor is not bf16");
  // Shared-storage mutability, as with f32_mut().
  return {reinterpret_cast<std::uint16_t*>(const_cast<std::byte*>(t.raw())),
          static_cast<std::size_t>(t.numel())};
}

class Kernel {
 public:
  virtual ~Kernel() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// The index space whose members partition this kernel's work.
  [[nodiscard]] virtual IndexSpace index_space() const = 0;

  /// Vector-local-memory requirement in 2048-bit vectors; the cluster
  /// rejects kernels exceeding the 80 KB bank, as the hardware would.
  [[nodiscard]] virtual std::size_t local_memory_vectors() const { return 0; }

  /// Executes one index-space member over real data.  Must be safe to call
  /// concurrently for distinct members (members write disjoint output
  /// regions).
  virtual void execute(DataContext& ctx, const Member& m) const = 0;
  /// Charges one member's instruction stream without computing it.  Equal
  /// to the data entry point's cycles and bytes, because control flow never
  /// depends on loaded values.
  virtual void execute(CostContext& ctx, const Member& m) const = 0;

  /// FLOPs performed by the whole kernel (for throughput reporting).
  [[nodiscard]] virtual std::uint64_t flop_count() const { return 0; }
};

/// Builds both entry points of kernel `K` from its one member body,
///   template <class Ctx> void body(Ctx& ctx, const Member& m) const;
/// written against the intrinsics both contexts share.  Where the body
/// touches lanes itself it tests `Ctx::carries_data` with `if constexpr`.
/// A body defined in a source file is instantiated there for DataContext and
/// CostContext.
template <class K>
class KernelBody : public Kernel {
 public:
  void execute(DataContext& ctx, const Member& m) const final {
    static_cast<const K&>(*this).body(ctx, m);
  }
  void execute(CostContext& ctx, const Member& m) const final {
    static_cast<const K&>(*this).body(ctx, m);
  }
};

}  // namespace gaudi::tpc
