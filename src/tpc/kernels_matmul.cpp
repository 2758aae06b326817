// Batched matrix multiplication executed on the TPC cluster.
//
// This is the comparator for the paper's Table 2: how fast can the "wrong"
// engine do GEMM?  The kernel follows the structure of Habana's
// custom-kernel example: each index-space member owns a 32-row x 64-column
// output tile, staging 64-deep k-blocks of both operands through vector
// local memory, with a scalar(A) x vector(B) FMA inner loop.  The VLIW
// machine overlaps the Load and VPU slots; paired scalar loads keep the
// inner loop VPU-bound, which is what lets the cluster approach its ~2.2
// TFLOPS peak on large shapes.
#include "tpc/kernels.hpp"

#include <algorithm>

namespace gaudi::tpc {

BatchedMatMulTpcKernel::BatchedMatMulTpcKernel(tensor::Tensor a, tensor::Tensor b,
                                               tensor::Tensor c)
    : a_(std::move(a)), b_(std::move(b)), c_(std::move(c)) {
  GAUDI_CHECK(a_.shape().rank() >= 2 && b_.shape().rank() >= 2,
              "tpc matmul expects rank >= 2");
  m_ = a_.shape()[a_.shape().rank() - 2];
  k_ = a_.shape()[a_.shape().rank() - 1];
  n_ = b_.shape()[b_.shape().rank() - 1];
  batch_ = a_.shape().batch_count(2);
  GAUDI_CHECK(b_.shape()[b_.shape().rank() - 2] == k_,
              "tpc matmul inner dims mismatch");
  GAUDI_CHECK(b_.shape().batch_count(2) == batch_,
              "tpc matmul batch dims mismatch");
  GAUDI_CHECK(c_.shape().numel() == batch_ * m_ * n_,
              "tpc matmul output shape mismatch");
}

IndexSpace BatchedMatMulTpcKernel::index_space() const {
  const std::int64_t mt = (m_ + kRowTile - 1) / kRowTile;
  const std::int64_t nt = (n_ + kLanes - 1) / kLanes;
  return IndexSpace{{batch_, mt, nt}};
}

std::size_t BatchedMatMulTpcKernel::local_memory_vectors() const {
  // One k-block of B (kKBlock vectors) plus one staged row-chunk per output
  // row (kRowTile vectors of kKBlock <= kLanes elements each).
  return static_cast<std::size_t>(kKBlock + kRowTile);
}

template <class Ctx>
void BatchedMatMulTpcKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto a = ro(a_);
  const auto b = ro(b_);
  auto c = rw(c_);

  const std::int64_t batch = m[0];
  const std::int64_t i0 = m[1] * kRowTile;
  const std::int64_t j0 = m[2] * kLanes;
  const std::int64_t rows = std::min<std::int64_t>(kRowTile, m_ - i0);
  const int cols = static_cast<int>(std::min<std::int64_t>(kLanes, n_ - j0));

  const std::int64_t a_base = batch * m_ * k_;
  const std::int64_t b_base = batch * k_ * n_;
  const std::int64_t c_base = batch * m_ * n_;

  // Local-memory layout: B block at [0, kKBlock), A row chunks after it.
  constexpr std::int64_t kBSlot = 0;
  constexpr std::int64_t kASlot = kKBlock;

  Vec acc[kRowTile];
  for (std::int64_t i = 0; i < rows; ++i) acc[i] = ctx.v_mov(0.0f);

  for (std::int64_t k0 = 0; k0 < k_; k0 += kKBlock) {
    const std::int64_t kb = std::min<std::int64_t>(kKBlock, k_ - k0);

    // Stage B[k0:k0+kb, j0:j0+cols] into local memory, one row per vector.
    for (std::int64_t kk = 0; kk < kb; ++kk) {
      Vec vb = ctx.v_ld_g(b, b_base + (k0 + kk) * n_ + j0, cols);
      ctx.v_st_l(kBSlot + kk, vb);
    }
    // Stage A[i0:i0+rows, k0:k0+kb] — one vector per row chunk.
    for (std::int64_t i = 0; i < rows; ++i) {
      Vec va = ctx.v_ld_g(a, a_base + (i0 + i) * k_ + k0, static_cast<int>(kb));
      ctx.v_st_l(kASlot + i, va);
    }

    // Inner loop: for each k, one B vector feeds FMAs for all staged rows;
    // A scalars are fetched in pairs so the Load slot keeps up with the VPU.
    for (std::int64_t kk = 0; kk < kb; ++kk) {
      const Vec vb = ctx.v_ld_l(kBSlot + kk);
      std::int64_t i = 0;
      for (; i + 1 < rows; i += 2) {
        const auto [a0, a1] = ctx.s_ld_l2(kASlot + i, static_cast<int>(kk),
                                          kASlot + i + 1, static_cast<int>(kk));
        acc[i] = ctx.v_madd_s(a0, vb, acc[i]);
        acc[i + 1] = ctx.v_madd_s(a1, vb, acc[i + 1]);
      }
      if (i < rows) {
        const float a0 = ctx.s_ld_l(kASlot + i, static_cast<int>(kk));
        acc[i] = ctx.v_madd_s(a0, vb, acc[i]);
      }
    }
  }

  for (std::int64_t i = 0; i < rows; ++i) {
    ctx.v_st_g(c, c_base + (i0 + i) * n_ + j0, acc[i], cols);
  }
}
template void BatchedMatMulTpcKernel::body(DataContext&, const Member&) const;
template void BatchedMatMulTpcKernel::body(CostContext&, const Member&) const;

std::uint64_t BatchedMatMulTpcKernel::flop_count() const {
  return 2ull * static_cast<std::uint64_t>(batch_) * m_ * n_ * k_;
}

}  // namespace gaudi::tpc
