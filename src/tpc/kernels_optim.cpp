// Optimizer update kernels.  Updates are element-wise streams; like every
// other non-matmul op they land on the TPC, which is why optimizer steps
// contribute to the TPC-busy phases of end-to-end training traces.
#include "tpc/kernels.hpp"

#include <algorithm>
#include <cmath>

namespace gaudi::tpc {

namespace {

constexpr std::int64_t kChunk = 8 * kLanes;

[[nodiscard]] IndexSpace flat_space(std::int64_t numel) {
  return IndexSpace{{(numel + kChunk - 1) / kChunk}};
}

template <typename F>
void for_member_vectors(std::int64_t numel, const Member& m, F&& fn) {
  const std::int64_t begin = m.linear * kChunk;
  const std::int64_t end = std::min(numel, begin + kChunk);
  for (std::int64_t off = begin; off < end; off += kLanes) {
    fn(off, static_cast<int>(std::min<std::int64_t>(kLanes, end - off)));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SgdUpdateKernel
// ---------------------------------------------------------------------------

SgdUpdateKernel::SgdUpdateKernel(tensor::Tensor param, tensor::Tensor grad,
                                 tensor::Tensor param_out, tensor::Tensor vel,
                                 tensor::Tensor vel_out, float lr, float momentum)
    : param_(std::move(param)), grad_(std::move(grad)),
      param_out_(std::move(param_out)), vel_(std::move(vel)),
      vel_out_(std::move(vel_out)), lr_(lr), momentum_(momentum) {
  GAUDI_CHECK(param_.shape().numel() == grad_.shape().numel() &&
                  param_.shape().numel() == param_out_.shape().numel(),
              "sgd: element count mismatch");
  if (momentum_ != 0.0f) {
    GAUDI_CHECK(vel_.shape().numel() == param_.shape().numel() &&
                    vel_out_.shape().numel() == param_.shape().numel(),
                "sgd with momentum requires velocity tensors");
  }
}

IndexSpace SgdUpdateKernel::index_space() const {
  return flat_space(param_.numel());
}

template <class Ctx>
void SgdUpdateKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto p = ro(param_);
  const auto g = ro(grad_);
  auto po = rw(param_out_);
  const auto vel = ro(vel_);
  auto vo = rw(vel_out_);
  const bool with_momentum = momentum_ != 0.0f;
  for_member_vectors(param_.numel(), m, [&](std::int64_t off, int count) {
    Vec vp = ctx.v_ld_g(p, off, count);
    Vec vg = ctx.v_ld_g(g, off, count);
    if (with_momentum) {
      Vec vv = ctx.v_ld_g(vel, off, count);
      vv = ctx.v_madd_s(momentum_, vv, vg);  // mu*vel + grad
      ctx.v_st_g(vo, off, vv, count);
      vg = vv;
    }
    ctx.v_st_g(po, off, ctx.v_madd_s(-lr_, vg, vp), count);
  });
}
template void SgdUpdateKernel::body(DataContext&, const Member&) const;
template void SgdUpdateKernel::body(CostContext&, const Member&) const;

std::uint64_t SgdUpdateKernel::flop_count() const {
  return static_cast<std::uint64_t>(param_.numel()) * (momentum_ != 0.0f ? 4 : 2);
}

// ---------------------------------------------------------------------------
// AdamUpdateKernel
// ---------------------------------------------------------------------------

AdamUpdateKernel::AdamUpdateKernel(tensor::Tensor param, tensor::Tensor grad,
                                   tensor::Tensor m, tensor::Tensor v,
                                   tensor::Tensor param_out, tensor::Tensor m_out,
                                   tensor::Tensor v_out, float lr, float beta1,
                                   float beta2, float eps, std::int64_t step)
    : param_(std::move(param)), grad_(std::move(grad)), m_(std::move(m)),
      v_(std::move(v)), param_out_(std::move(param_out)), m_out_(std::move(m_out)),
      v_out_(std::move(v_out)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      step_(step) {
  const std::int64_t n = param_.shape().numel();
  GAUDI_CHECK(grad_.shape().numel() == n && m_.shape().numel() == n &&
                  v_.shape().numel() == n && param_out_.shape().numel() == n &&
                  m_out_.shape().numel() == n && v_out_.shape().numel() == n,
              "adam: element count mismatch");
  GAUDI_CHECK(step_ >= 1, "adam: step count starts at 1");
}

IndexSpace AdamUpdateKernel::index_space() const {
  return flat_space(param_.numel());
}

template <class Ctx>
void AdamUpdateKernel::body(Ctx& ctx, const Member& mem) const {
  using Vec = typename Ctx::Vec;
  const auto p = ro(param_);
  const auto g = ro(grad_);
  const auto m_in = ro(m_);
  const auto v_in = ro(v_);
  auto po = rw(param_out_);
  auto mo = rw(m_out_);
  auto vo = rw(v_out_);

  // Bias-corrected step size, computed once per member on the SPU.
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(step_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(step_));
  const float alpha = ctx.s_mul(lr_, ctx.s_mul(ctx.s_sqrt(bc2), ctx.s_recip(bc1)));

  for_member_vectors(param_.numel(), mem, [&](std::int64_t off, int count) {
    Vec vp = ctx.v_ld_g(p, off, count);
    Vec vg = ctx.v_ld_g(g, off, count);
    Vec vm = ctx.v_ld_g(m_in, off, count);
    Vec vv = ctx.v_ld_g(v_in, off, count);

    vm = ctx.v_madd_s(beta1_, vm, ctx.v_mul_s(vg, 1.0f - beta1_));
    vv = ctx.v_madd_s(beta2_, vv, ctx.v_mul_s(ctx.v_mul(vg, vg), 1.0f - beta2_));
    ctx.v_st_g(mo, off, vm, count);
    ctx.v_st_g(vo, off, vv, count);

    const Vec denom = ctx.v_add_s(ctx.v_sqrt(vv), eps_);
    const Vec update = ctx.v_mul(vm, ctx.v_recip(denom));
    ctx.v_st_g(po, off, ctx.v_madd_s(-alpha, update, vp), count);
  });
}
template void AdamUpdateKernel::body(DataContext&, const Member&) const;
template void AdamUpdateKernel::body(CostContext&, const Member&) const;

std::uint64_t AdamUpdateKernel::flop_count() const {
  return static_cast<std::uint64_t>(param_.numel()) * 12;
}

}  // namespace gaudi::tpc
