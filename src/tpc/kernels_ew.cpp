// Element-wise TPC kernels: unary/binary/scalar ops, activations, GLU,
// dropout, fill, row-vector broadcasts.
#include "tpc/kernels.hpp"

#include <algorithm>
#include <cmath>

namespace gaudi::tpc {

namespace {

/// Vectors handled per index-space member for flat element-wise sweeps; a
/// larger grain amortizes per-member bookkeeping as a real kernel would.
constexpr std::int64_t kVecsPerMember = 8;
constexpr std::int64_t kChunk = kVecsPerMember * kLanes;

[[nodiscard]] IndexSpace flat_space(std::int64_t numel) {
  return IndexSpace{{(numel + kChunk - 1) / kChunk}};
}

/// Iterates the member's vector chunks, invoking fn(offset, count).
template <typename F>
void for_member_vectors(std::int64_t numel, const Member& m, F&& fn) {
  const std::int64_t begin = m.linear * kChunk;
  const std::int64_t end = std::min(numel, begin + kChunk);
  for (std::int64_t off = begin; off < end; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, end - off));
    fn(off, count);
  }
}

constexpr float kGeluC = 0.7978845608f;  // sqrt(2/pi)

}  // namespace

// ---------------------------------------------------------------------------
// UnaryEwKernel
// ---------------------------------------------------------------------------

const char* unary_kind_name(UnaryKind k) {
  switch (k) {
    case UnaryKind::kExp: return "exp";
    case UnaryKind::kLog: return "log";
    case UnaryKind::kSqrt: return "sqrt";
    case UnaryKind::kSquare: return "square";
    case UnaryKind::kRecip: return "recip";
    case UnaryKind::kRelu: return "relu";
    case UnaryKind::kLeakyRelu: return "leaky_relu";
    case UnaryKind::kElu: return "elu";
    case UnaryKind::kGelu: return "gelu";
    case UnaryKind::kSigmoid: return "sigmoid";
    case UnaryKind::kTanh: return "tanh";
    case UnaryKind::kNeg: return "neg";
    case UnaryKind::kAbs: return "abs";
  }
  return "?";
}

UnaryEwKernel::UnaryEwKernel(UnaryKind kind, tensor::Tensor in, tensor::Tensor out,
                             float alpha)
    : kind_(kind), in_(std::move(in)), out_(std::move(out)), alpha_(alpha) {
  GAUDI_CHECK(in_.shape().numel() == out_.shape().numel(),
              "unary kernel: element count mismatch");
}

std::string UnaryEwKernel::name() const {
  return std::string("tpc.") + unary_kind_name(kind_);
}

IndexSpace UnaryEwKernel::index_space() const { return flat_space(in_.numel()); }

template <class Ctx>
void UnaryEwKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto in = ro(in_);
  auto out = rw(out_);
  const float alpha = alpha_;
  for_member_vectors(in_.numel(), m, [&](std::int64_t off, int count) {
    Vec v = ctx.v_ld_g(in, off, count);
    Vec r;
    switch (kind_) {
      case UnaryKind::kExp: r = ctx.v_exp(v); break;
      case UnaryKind::kLog: r = ctx.v_log(v); break;
      case UnaryKind::kSqrt: r = ctx.v_sqrt(v); break;
      case UnaryKind::kSquare: r = ctx.v_mul(v, v); break;
      case UnaryKind::kRecip: r = ctx.v_recip(v); break;
      case UnaryKind::kRelu: r = ctx.v_max(v, ctx.v_mov(0.0f)); break;
      case UnaryKind::kLeakyRelu:
        r = ctx.v_sel_gtz(v, v, ctx.v_mul_s(v, alpha));
        break;
      case UnaryKind::kElu:
        r = ctx.v_elu(v, alpha);
        break;
      case UnaryKind::kGelu:
        r = ctx.v_gelu(v);
        break;
      case UnaryKind::kSigmoid: r = ctx.v_sigmoid(v); break;
      case UnaryKind::kTanh: r = ctx.v_tanh(v); break;
      case UnaryKind::kNeg: r = ctx.v_neg(v); break;
      case UnaryKind::kAbs: r = ctx.v_abs(v); break;
    }
    ctx.v_st_g(out, off, r, count);
  });
}
template void UnaryEwKernel::body(DataContext&, const Member&) const;
template void UnaryEwKernel::body(CostContext&, const Member&) const;

std::uint64_t UnaryEwKernel::flop_count() const {
  return static_cast<std::uint64_t>(in_.numel());
}

// ---------------------------------------------------------------------------
// UnaryGradKernel
// ---------------------------------------------------------------------------

UnaryGradKernel::UnaryGradKernel(UnaryKind kind, tensor::Tensor x, tensor::Tensor dy,
                                 tensor::Tensor dx, float alpha)
    : kind_(kind), x_(std::move(x)), dy_(std::move(dy)), dx_(std::move(dx)),
      alpha_(alpha) {
  GAUDI_CHECK(x_.shape().numel() == dy_.shape().numel() &&
                  x_.shape().numel() == dx_.shape().numel(),
              "unary grad kernel: element count mismatch");
}

std::string UnaryGradKernel::name() const {
  return std::string("tpc.") + unary_kind_name(kind_) + "_grad";
}

IndexSpace UnaryGradKernel::index_space() const { return flat_space(x_.numel()); }

template <class Ctx>
void UnaryGradKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto x = ro(x_);
  const auto dy = ro(dy_);
  auto dx = rw(dx_);
  const float alpha = alpha_;
  for_member_vectors(x_.numel(), m, [&](std::int64_t off, int count) {
    Vec vx = ctx.v_ld_g(x, off, count);
    Vec vdy = ctx.v_ld_g(dy, off, count);
    Vec d;  // f'(x)
    switch (kind_) {
      case UnaryKind::kExp: d = ctx.v_exp(vx); break;
      case UnaryKind::kLog: d = ctx.v_recip(vx); break;
      case UnaryKind::kSqrt: d = ctx.v_mul_s(ctx.v_rsqrt(vx), 0.5f); break;
      case UnaryKind::kSquare: d = ctx.v_mul_s(vx, 2.0f); break;
      case UnaryKind::kRecip: {
        const Vec r = ctx.v_recip(vx);
        d = ctx.v_neg(ctx.v_mul(r, r));
        break;
      }
      case UnaryKind::kRelu:
        d = ctx.v_sel_gtz(vx, ctx.v_mov(1.0f), ctx.v_mov(0.0f));
        break;
      case UnaryKind::kLeakyRelu:
        d = ctx.v_sel_gtz(vx, ctx.v_mov(1.0f), ctx.v_mov(alpha));
        break;
      case UnaryKind::kElu:
        d = ctx.v_sel_gtz(vx, ctx.v_mov(1.0f), ctx.v_mul_s(ctx.v_exp(vx), alpha));
        break;
      case UnaryKind::kGelu: {
        // d/dx [0.5x(1+tanh(u))], u = c(x + 0.044715x^3)
        const Vec x2 = ctx.v_mul(vx, vx);
        const Vec u = ctx.v_mul_s(
            ctx.v_madd_s(0.044715f, ctx.v_mul(x2, vx), vx), kGeluC);
        const Vec t = ctx.v_tanh(u);
        const Vec sech2 = ctx.v_sub(ctx.v_mov(1.0f), ctx.v_mul(t, t));
        const Vec du = ctx.v_mul_s(ctx.v_madd_s(3.0f * 0.044715f, x2, ctx.v_mov(1.0f)),
                                    kGeluC);
        const Vec half_x = ctx.v_mul_s(vx, 0.5f);
        d = ctx.v_add(ctx.v_mul_s(ctx.v_add_s(t, 1.0f), 0.5f),
                      ctx.v_mul(half_x, ctx.v_mul(sech2, du)));
        break;
      }
      case UnaryKind::kSigmoid: {
        const Vec s = ctx.v_sigmoid(vx);
        d = ctx.v_mul(s, ctx.v_sub(ctx.v_mov(1.0f), s));
        break;
      }
      case UnaryKind::kTanh: {
        const Vec t = ctx.v_tanh(vx);
        d = ctx.v_sub(ctx.v_mov(1.0f), ctx.v_mul(t, t));
        break;
      }
      case UnaryKind::kNeg: d = ctx.v_mov(-1.0f); break;
      case UnaryKind::kAbs:
        d = ctx.v_sel_gtz(vx, ctx.v_mov(1.0f), ctx.v_mov(-1.0f));
        break;
    }
    ctx.v_st_g(dx, off, ctx.v_mul(vdy, d), count);
  });
}
template void UnaryGradKernel::body(DataContext&, const Member&) const;
template void UnaryGradKernel::body(CostContext&, const Member&) const;

std::uint64_t UnaryGradKernel::flop_count() const {
  return 2 * static_cast<std::uint64_t>(x_.numel());
}

// ---------------------------------------------------------------------------
// BinaryEwKernel
// ---------------------------------------------------------------------------

const char* binary_kind_name(BinaryKind k) {
  switch (k) {
    case BinaryKind::kAdd: return "add";
    case BinaryKind::kSub: return "sub";
    case BinaryKind::kMul: return "mul";
    case BinaryKind::kDiv: return "div";
    case BinaryKind::kMax: return "max";
  }
  return "?";
}

BinaryEwKernel::BinaryEwKernel(BinaryKind kind, tensor::Tensor a, tensor::Tensor b,
                               tensor::Tensor out)
    : kind_(kind), a_(std::move(a)), b_(std::move(b)), out_(std::move(out)) {
  GAUDI_CHECK(a_.shape().numel() == b_.shape().numel() &&
                  a_.shape().numel() == out_.shape().numel(),
              "binary kernel: element count mismatch");
}

std::string BinaryEwKernel::name() const {
  return std::string("tpc.") + binary_kind_name(kind_);
}

IndexSpace BinaryEwKernel::index_space() const { return flat_space(a_.numel()); }

template <class Ctx>
void BinaryEwKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto a = ro(a_);
  const auto b = ro(b_);
  auto out = rw(out_);
  for_member_vectors(a_.numel(), m, [&](std::int64_t off, int count) {
    Vec va = ctx.v_ld_g(a, off, count);
    Vec vb = ctx.v_ld_g(b, off, count);
    Vec r;
    switch (kind_) {
      case BinaryKind::kAdd: r = ctx.v_add(va, vb); break;
      case BinaryKind::kSub: r = ctx.v_sub(va, vb); break;
      case BinaryKind::kMul: r = ctx.v_mul(va, vb); break;
      case BinaryKind::kDiv: r = ctx.v_mul(va, ctx.v_recip(vb)); break;
      case BinaryKind::kMax: r = ctx.v_max(va, vb); break;
    }
    ctx.v_st_g(out, off, r, count);
  });
}
template void BinaryEwKernel::body(DataContext&, const Member&) const;
template void BinaryEwKernel::body(CostContext&, const Member&) const;

std::uint64_t BinaryEwKernel::flop_count() const {
  return static_cast<std::uint64_t>(a_.numel());
}

// ---------------------------------------------------------------------------
// ScalarEwKernel
// ---------------------------------------------------------------------------

const char* scalar_kind_name(ScalarKind k) {
  switch (k) {
    case ScalarKind::kAddS: return "add_scalar";
    case ScalarKind::kSubS: return "sub_scalar";
    case ScalarKind::kRsubS: return "rsub_scalar";
    case ScalarKind::kMulS: return "mul_scalar";
  }
  return "?";
}

ScalarEwKernel::ScalarEwKernel(ScalarKind kind, tensor::Tensor in, float scalar,
                               tensor::Tensor out)
    : kind_(kind), in_(std::move(in)), out_(std::move(out)), scalar_(scalar) {
  GAUDI_CHECK(in_.shape().numel() == out_.shape().numel(),
              "scalar kernel: element count mismatch");
}

std::string ScalarEwKernel::name() const {
  return std::string("tpc.") + scalar_kind_name(kind_);
}

IndexSpace ScalarEwKernel::index_space() const { return flat_space(in_.numel()); }

template <class Ctx>
void ScalarEwKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto in = ro(in_);
  auto out = rw(out_);
  const float s = scalar_;
  for_member_vectors(in_.numel(), m, [&](std::int64_t off, int count) {
    Vec v = ctx.v_ld_g(in, off, count);
    Vec r;
    switch (kind_) {
      case ScalarKind::kAddS: r = ctx.v_add_s(v, s); break;
      case ScalarKind::kSubS: r = ctx.v_add_s(v, -s); break;
      case ScalarKind::kRsubS: r = ctx.v_add_s(ctx.v_neg(v), s); break;
      case ScalarKind::kMulS: r = ctx.v_mul_s(v, s); break;
    }
    ctx.v_st_g(out, off, r, count);
  });
}
template void ScalarEwKernel::body(DataContext&, const Member&) const;
template void ScalarEwKernel::body(CostContext&, const Member&) const;

std::uint64_t ScalarEwKernel::flop_count() const {
  return static_cast<std::uint64_t>(in_.numel());
}

// ---------------------------------------------------------------------------
// FillKernel
// ---------------------------------------------------------------------------

FillKernel::FillKernel(tensor::Tensor out, float value)
    : out_(std::move(out)), value_(value) {}

IndexSpace FillKernel::index_space() const { return flat_space(out_.numel()); }

template <class Ctx>
void FillKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  auto out = rw(out_);
  const Vec v = ctx.v_mov(value_);
  for_member_vectors(out_.numel(), m, [&](std::int64_t off, int count) {
    ctx.v_st_g(out, off, v, count);
  });
}
template void FillKernel::body(DataContext&, const Member&) const;
template void FillKernel::body(CostContext&, const Member&) const;

// ---------------------------------------------------------------------------
// RowvecKernel
// ---------------------------------------------------------------------------

RowvecKernel::RowvecKernel(Op op, tensor::Tensor in, tensor::Tensor vec,
                           tensor::Tensor out)
    : op_(op), in_(std::move(in)), vec_(std::move(vec)), out_(std::move(out)) {
  GAUDI_CHECK(vec_.shape().rank() == 1, "rowvec kernel: vector must be rank-1");
  GAUDI_CHECK(in_.shape()[in_.shape().rank() - 1] == vec_.shape()[0],
              "rowvec kernel: trailing dim mismatch");
  GAUDI_CHECK(in_.shape().numel() == out_.shape().numel(),
              "rowvec kernel: element count mismatch");
}

std::string RowvecKernel::name() const {
  return op_ == Op::kAdd ? "tpc.add_rowvec" : "tpc.mul_rowvec";
}

IndexSpace RowvecKernel::index_space() const {
  const std::int64_t d = vec_.shape()[0];
  return IndexSpace{{in_.numel() / d}};
}

template <class Ctx>
void RowvecKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto in = ro(in_);
  const auto vec = ro(vec_);
  auto out = rw(out_);
  const std::int64_t d = vec_.shape()[0];
  const std::int64_t base = m.linear * d;
  for (std::int64_t j = 0; j < d; j += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, d - j));
    Vec vi = ctx.v_ld_g(in, base + j, count);
    Vec vv = ctx.v_ld_g(vec, j, count);
    Vec r = op_ == Op::kAdd ? ctx.v_add(vi, vv) : ctx.v_mul(vi, vv);
    ctx.v_st_g(out, base + j, r, count);
  }
}
template void RowvecKernel::body(DataContext&, const Member&) const;
template void RowvecKernel::body(CostContext&, const Member&) const;

std::uint64_t RowvecKernel::flop_count() const {
  return static_cast<std::uint64_t>(in_.numel());
}

// ---------------------------------------------------------------------------
// GluKernel / GluGradKernel
// ---------------------------------------------------------------------------

GluKernel::GluKernel(tensor::Tensor in, tensor::Tensor out)
    : in_(std::move(in)), out_(std::move(out)) {
  const std::int64_t d2 = in_.shape()[in_.shape().rank() - 1];
  GAUDI_CHECK(d2 % 2 == 0, "glu: trailing dim must be even");
  GAUDI_CHECK(out_.shape()[out_.shape().rank() - 1] == d2 / 2 &&
                  out_.shape().numel() == in_.shape().numel() / 2,
              "glu: output must halve the trailing dim");
}

IndexSpace GluKernel::index_space() const {
  const std::int64_t d2 = in_.shape()[in_.shape().rank() - 1];
  return IndexSpace{{in_.numel() / d2}};
}

template <class Ctx>
void GluKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto in = ro(in_);
  auto out = rw(out_);
  const std::int64_t d2 = in_.shape()[in_.shape().rank() - 1];
  const std::int64_t d = d2 / 2;
  const std::int64_t in_base = m.linear * d2;
  const std::int64_t out_base = m.linear * d;
  for (std::int64_t j = 0; j < d; j += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, d - j));
    Vec a = ctx.v_ld_g(in, in_base + j, count);
    Vec b = ctx.v_ld_g(in, in_base + d + j, count);
    ctx.v_st_g(out, out_base + j, ctx.v_mul(a, ctx.v_sigmoid(b)), count);
  }
}
template void GluKernel::body(DataContext&, const Member&) const;
template void GluKernel::body(CostContext&, const Member&) const;

std::uint64_t GluKernel::flop_count() const {
  return static_cast<std::uint64_t>(out_.numel()) * 2;
}

GluGradKernel::GluGradKernel(tensor::Tensor in, tensor::Tensor dout,
                             tensor::Tensor din)
    : in_(std::move(in)), dout_(std::move(dout)), din_(std::move(din)) {
  GAUDI_CHECK(in_.shape().numel() == din_.shape().numel(),
              "glu grad: din must match input");
  GAUDI_CHECK(dout_.shape().numel() * 2 == in_.shape().numel(),
              "glu grad: dout must be half of input");
}

IndexSpace GluGradKernel::index_space() const {
  const std::int64_t d2 = in_.shape()[in_.shape().rank() - 1];
  return IndexSpace{{in_.numel() / d2}};
}

template <class Ctx>
void GluGradKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto in = ro(in_);
  const auto dout = ro(dout_);
  auto din = rw(din_);
  const std::int64_t d2 = in_.shape()[in_.shape().rank() - 1];
  const std::int64_t d = d2 / 2;
  const std::int64_t in_base = m.linear * d2;
  const std::int64_t out_base = m.linear * d;
  for (std::int64_t j = 0; j < d; j += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, d - j));
    Vec a = ctx.v_ld_g(in, in_base + j, count);
    Vec b = ctx.v_ld_g(in, in_base + d + j, count);
    Vec g = ctx.v_ld_g(dout, out_base + j, count);
    const Vec s = ctx.v_sigmoid(b);
    // da = g * sigmoid(b); db = g * a * s * (1 - s)
    ctx.v_st_g(din, in_base + j, ctx.v_mul(g, s), count);
    const Vec ds = ctx.v_mul(s, ctx.v_sub(ctx.v_mov(1.0f), s));
    ctx.v_st_g(din, in_base + d + j, ctx.v_mul(ctx.v_mul(g, a), ds), count);
  }
}
template void GluGradKernel::body(DataContext&, const Member&) const;
template void GluGradKernel::body(CostContext&, const Member&) const;

std::uint64_t GluGradKernel::flop_count() const {
  return static_cast<std::uint64_t>(in_.numel()) * 3;
}

// ---------------------------------------------------------------------------
// CastKernel
// ---------------------------------------------------------------------------

CastKernel::CastKernel(tensor::Tensor in, tensor::Tensor out)
    : in_(std::move(in)), out_(std::move(out)) {
  GAUDI_CHECK(in_.shape().numel() == out_.shape().numel(),
              "cast: element count mismatch");
  GAUDI_CHECK(tensor::is_floating(in_.dtype()) && tensor::is_floating(out_.dtype()),
              "cast supports f32 <-> bf16");
  GAUDI_CHECK(in_.dtype() != out_.dtype(), "cast requires distinct dtypes");
}

IndexSpace CastKernel::index_space() const { return flat_space(in_.numel()); }

template <class Ctx>
void CastKernel::body(Ctx& ctx, const Member& m) const {
  const bool in_bf16 = in_.dtype() == tensor::DType::BF16;
  const auto in_f = in_bf16 ? std::span<const float>{} : ro(in_);
  const auto in_b = in_bf16 ? ro_bf16(in_) : std::span<const std::uint16_t>{};
  auto out_f = in_bf16 ? rw(out_) : std::span<float>{};
  auto out_b = in_bf16 ? std::span<std::uint16_t>{} : rw_bf16(out_);
  for_member_vectors(in_.numel(), m, [&](std::int64_t off, int count) {
    if (in_bf16) {
      ctx.v_st_g(out_f, off, ctx.v_ld_g_bf16(in_b, off, count), count);
    } else {
      ctx.v_st_g_bf16(out_b, off, ctx.v_ld_g(in_f, off, count), count);
    }
  });
}
template void CastKernel::body(DataContext&, const Member&) const;
template void CastKernel::body(CostContext&, const Member&) const;

// ---------------------------------------------------------------------------
// DropoutKernel
// ---------------------------------------------------------------------------

DropoutKernel::DropoutKernel(tensor::Tensor in, tensor::Tensor out, float p,
                             std::uint64_t seed_offset)
    : in_(std::move(in)), out_(std::move(out)), p_(p), seed_offset_(seed_offset) {
  GAUDI_CHECK(p >= 0.0f && p < 1.0f, "dropout probability must be in [0, 1)");
  GAUDI_CHECK(in_.shape().numel() == out_.shape().numel(),
              "dropout: element count mismatch");
}

IndexSpace DropoutKernel::index_space() const { return flat_space(in_.numel()); }

template <class Ctx>
void DropoutKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto in = ro(in_);
  auto out = rw(out_);
  const float scale = 1.0f / (1.0f - p_);
  for_member_vectors(in_.numel(), m, [&](std::int64_t off, int count) {
    Vec v = ctx.v_ld_g(in, off, count);
    Vec u = ctx.v_rng(seed_offset_ + static_cast<std::uint64_t>(off) / kLanes);
    // keep-mask: u >= p  →  (u - p) > 0 ? x*scale : 0
    Vec keep = ctx.v_add_s(u, -p_);
    Vec r = ctx.v_sel_gtz(keep, ctx.v_mul_s(v, scale), ctx.v_mov(0.0f));
    ctx.v_st_g(out, off, r, count);
  });
}
template void DropoutKernel::body(DataContext&, const Member&) const;
template void DropoutKernel::body(CostContext&, const Member&) const;

std::uint64_t DropoutKernel::flop_count() const {
  return static_cast<std::uint64_t>(in_.numel());
}

}  // namespace gaudi::tpc
