// Row-structured TPC kernels: softmax (the paper's headline bottleneck),
// layernorm, reductions, broadcasts, column sums, tiled transpose.
#include "tpc/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gaudi::tpc {

namespace {

struct RowInfo {
  std::int64_t row_len = 0;
  std::int64_t rows = 0;
};

[[nodiscard]] RowInfo row_info(const tensor::Tensor& t) {
  const std::int64_t d = t.shape()[t.shape().rank() - 1];
  return RowInfo{d, t.numel() / d};
}

[[nodiscard]] std::int64_t vectors_per_row(std::int64_t row_len) {
  return (row_len + kLanes - 1) / kLanes;
}

/// Max vectors of a row we are willing to stage in local memory (the 80 KB
/// bank holds 320; leave headroom for other uses).
constexpr std::int64_t kMaxCachedRowVectors = 256;

}  // namespace

// ---------------------------------------------------------------------------
// SoftmaxKernel
// ---------------------------------------------------------------------------

SoftmaxKernel::SoftmaxKernel(tensor::Tensor in, tensor::Tensor out)
    : in_(std::move(in)), out_(std::move(out)) {
  GAUDI_CHECK(in_.shape().numel() == out_.shape().numel(),
              "softmax: element count mismatch");
  const RowInfo ri = row_info(in_);
  row_len_ = ri.row_len;
  rows_ = ri.rows;
  cache_row_ = vectors_per_row(row_len_) <= kMaxCachedRowVectors;
}

IndexSpace SoftmaxKernel::index_space() const { return IndexSpace{{rows_}}; }

std::size_t SoftmaxKernel::local_memory_vectors() const {
  return cache_row_ ? static_cast<std::size_t>(vectors_per_row(row_len_)) : 0;
}

template <class Ctx>
void SoftmaxKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto in = ro(in_);
  auto out = rw(out_);
  const std::int64_t base = m.linear * row_len_;
  const std::int64_t nvec = vectors_per_row(row_len_);
  const float neg_inf = -std::numeric_limits<float>::infinity();

  // Pass 1: row max.  Tail lanes are filled with -inf so they cannot win.
  Vec vmax = ctx.v_mov(neg_inf);
  for (std::int64_t v = 0; v < nvec; ++v) {
    const std::int64_t off = v * kLanes;
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, row_len_ - off));
    Vec x = ctx.v_ld_g(in, base + off, count, neg_inf);
    if (cache_row_) ctx.v_st_l(v, x);
    vmax = ctx.v_max(vmax, x);
  }
  const float row_max = ctx.v_reduce_max(vmax);
  // Fully-masked row: every logit is -inf (an attention row whose mask
  // blanks all positions), so exp(x - row_max) would be exp(-inf + inf) =
  // NaN.  Subtracting 0 instead makes every exponential exp(-inf) = 0; the
  // guarded reciprocal below then zeroes the row — the defined result (no
  // position receives weight).  Both fixups are compiler-folded scalar
  // selects, so the instruction stream (and the cycle count in both
  // execution modes) is identical to the generic path.
  const float safe_max = row_max == neg_inf ? 0.0f : row_max;

  // Pass 2: exponentials and their sum; exp(x - max) staged back to local
  // memory (or recomputed into output) so pass 3 only rescales.
  Vec vsum = ctx.v_mov(0.0f);
  for (std::int64_t v = 0; v < nvec; ++v) {
    const std::int64_t off = v * kLanes;
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, row_len_ - off));
    Vec x = cache_row_ ? ctx.v_ld_l(v) : ctx.v_ld_g(in, base + off, count, neg_inf);
    Vec e = ctx.v_exp(ctx.v_add_s(x, -safe_max));
    if (cache_row_) {
      ctx.v_st_l(v, e);
    } else {
      ctx.v_st_g(out, base + off, e, count);
    }
    // Tail lanes hold exp(-inf) = 0 and do not perturb the sum.
    vsum = ctx.v_add(vsum, e);
  }
  const float sum = ctx.v_reduce_add(vsum);
  // sum == 0 only on a fully-masked row (otherwise exp(max - max) = 1
  // contributes); 1/FLT_MIN times the all-zero exponentials keeps the row
  // zero instead of the 0 * inf = NaN a bare reciprocal would produce.
  const float inv_sum =
      ctx.s_recip(std::max(sum, std::numeric_limits<float>::min()));

  // Pass 3: normalize.
  for (std::int64_t v = 0; v < nvec; ++v) {
    const std::int64_t off = v * kLanes;
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, row_len_ - off));
    Vec e = cache_row_ ? ctx.v_ld_l(v) : ctx.v_ld_g(out, base + off, count);
    ctx.v_st_g(out, base + off, ctx.v_mul_s(e, inv_sum), count);
  }
}
template void SoftmaxKernel::body(DataContext&, const Member&) const;
template void SoftmaxKernel::body(CostContext&, const Member&) const;

std::uint64_t SoftmaxKernel::flop_count() const {
  // max + sub + exp + add + mul per element (exp counted as one).
  return static_cast<std::uint64_t>(in_.numel()) * 5;
}

// ---------------------------------------------------------------------------
// SoftmaxGradKernel
// ---------------------------------------------------------------------------

SoftmaxGradKernel::SoftmaxGradKernel(tensor::Tensor y, tensor::Tensor dy,
                                     tensor::Tensor dx)
    : y_(std::move(y)), dy_(std::move(dy)), dx_(std::move(dx)) {
  GAUDI_CHECK(y_.shape().numel() == dy_.shape().numel() &&
                  y_.shape().numel() == dx_.shape().numel(),
              "softmax grad: element count mismatch");
  const RowInfo ri = row_info(y_);
  row_len_ = ri.row_len;
  rows_ = ri.rows;
}

IndexSpace SoftmaxGradKernel::index_space() const { return IndexSpace{{rows_}}; }

template <class Ctx>
void SoftmaxGradKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto y = ro(y_);
  const auto dy = ro(dy_);
  auto dx = rw(dx_);
  const std::int64_t base = m.linear * row_len_;

  // Pass 1: s = sum(y * dy).
  Vec vs = ctx.v_mov(0.0f);
  for (std::int64_t off = 0; off < row_len_; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, row_len_ - off));
    Vec vy = ctx.v_ld_g(y, base + off, count);
    Vec vdy = ctx.v_ld_g(dy, base + off, count);
    vs = ctx.v_madd(vy, vdy, vs);
  }
  const float s = ctx.v_reduce_add(vs);

  // Pass 2: dx = y * (dy - s).
  for (std::int64_t off = 0; off < row_len_; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, row_len_ - off));
    Vec vy = ctx.v_ld_g(y, base + off, count);
    Vec vdy = ctx.v_ld_g(dy, base + off, count);
    ctx.v_st_g(dx, base + off, ctx.v_mul(vy, ctx.v_add_s(vdy, -s)), count);
  }
}
template void SoftmaxGradKernel::body(DataContext&, const Member&) const;
template void SoftmaxGradKernel::body(CostContext&, const Member&) const;

std::uint64_t SoftmaxGradKernel::flop_count() const {
  return static_cast<std::uint64_t>(y_.numel()) * 4;
}

// ---------------------------------------------------------------------------
// LayerNormKernel
// ---------------------------------------------------------------------------

LayerNormKernel::LayerNormKernel(tensor::Tensor x, tensor::Tensor gamma,
                                 tensor::Tensor beta, tensor::Tensor y,
                                 tensor::Tensor save_mean, tensor::Tensor save_rstd,
                                 float eps)
    : x_(std::move(x)), gamma_(std::move(gamma)), beta_(std::move(beta)),
      y_(std::move(y)), mean_(std::move(save_mean)), rstd_(std::move(save_rstd)),
      eps_(eps) {
  const RowInfo ri = row_info(x_);
  row_len_ = ri.row_len;
  rows_ = ri.rows;
  GAUDI_CHECK(gamma_.shape().rank() == 1 && gamma_.shape()[0] == row_len_,
              "layernorm: gamma must be [D]");
  GAUDI_CHECK(beta_.shape().rank() == 1 && beta_.shape()[0] == row_len_,
              "layernorm: beta must be [D]");
  GAUDI_CHECK(y_.shape().numel() == x_.shape().numel(),
              "layernorm: output shape mismatch");
}

IndexSpace LayerNormKernel::index_space() const { return IndexSpace{{rows_}}; }

template <class Ctx>
void LayerNormKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto x = ro(x_);
  const auto gamma = ro(gamma_);
  const auto beta = ro(beta_);
  auto y = rw(y_);
  auto mean_out = rw(mean_);
  auto rstd_out = rw(rstd_);
  const std::int64_t base = m.linear * row_len_;
  const float inv_d = 1.0f / static_cast<float>(row_len_);

  // Pass 1: mean and mean of squares in one sweep.
  Vec vsum = ctx.v_mov(0.0f);
  Vec vsq = ctx.v_mov(0.0f);
  for (std::int64_t off = 0; off < row_len_; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, row_len_ - off));
    Vec vx = ctx.v_ld_g(x, base + off, count);
    vsum = ctx.v_add(vsum, vx);
    vsq = ctx.v_madd(vx, vx, vsq);
  }
  const float mean = ctx.s_mul(ctx.v_reduce_add(vsum), inv_d);
  const float ex2 = ctx.s_mul(ctx.v_reduce_add(vsq), inv_d);
  // E[x^2] - mean^2 cancels catastrophically on near-constant rows and can
  // come out slightly negative; if |var| exceeded eps the sqrt would go
  // NaN.  True variance is non-negative, so clamp before adding eps.
  const float var = std::max(0.0f, ctx.s_add(ex2, -mean * mean));
  const float rstd = ctx.s_recip(ctx.s_sqrt(ctx.s_add(var, eps_)));

  if (!mean_out.empty()) ctx.s_st_g(mean_out, m.linear, mean);
  if (!rstd_out.empty()) ctx.s_st_g(rstd_out, m.linear, rstd);

  // Pass 2: normalize, scale, shift.
  for (std::int64_t off = 0; off < row_len_; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, row_len_ - off));
    Vec vx = ctx.v_ld_g(x, base + off, count);
    Vec vg = ctx.v_ld_g(gamma, off, count);
    Vec vb = ctx.v_ld_g(beta, off, count);
    Vec norm = ctx.v_mul_s(ctx.v_add_s(vx, -mean), rstd);
    ctx.v_st_g(y, base + off, ctx.v_madd(norm, vg, vb), count);
  }
}
template void LayerNormKernel::body(DataContext&, const Member&) const;
template void LayerNormKernel::body(CostContext&, const Member&) const;

std::uint64_t LayerNormKernel::flop_count() const {
  return static_cast<std::uint64_t>(x_.numel()) * 7;
}

// ---------------------------------------------------------------------------
// LayerNormInputGradKernel
// ---------------------------------------------------------------------------

LayerNormInputGradKernel::LayerNormInputGradKernel(
    tensor::Tensor x, tensor::Tensor gamma, tensor::Tensor mean, tensor::Tensor rstd,
    tensor::Tensor dy, tensor::Tensor dx)
    : x_(std::move(x)), gamma_(std::move(gamma)), mean_(std::move(mean)),
      rstd_(std::move(rstd)), dy_(std::move(dy)), dx_(std::move(dx)) {
  const RowInfo ri = row_info(x_);
  row_len_ = ri.row_len;
  rows_ = ri.rows;
}

IndexSpace LayerNormInputGradKernel::index_space() const {
  return IndexSpace{{rows_}};
}

template <class Ctx>
void LayerNormInputGradKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto x = ro(x_);
  const auto gamma = ro(gamma_);
  const auto mean = ro(mean_);
  const auto rstd = ro(rstd_);
  const auto dy = ro(dy_);
  auto dx = rw(dx_);
  const std::int64_t base = m.linear * row_len_;
  const float mu = ctx.s_ld_g(mean, m.linear);
  const float rs = ctx.s_ld_g(rstd, m.linear);
  const float inv_d = 1.0f / static_cast<float>(row_len_);

  // a = sum(dy*gamma), b = sum(dy*gamma*xhat)
  Vec va = ctx.v_mov(0.0f);
  Vec vb = ctx.v_mov(0.0f);
  for (std::int64_t off = 0; off < row_len_; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, row_len_ - off));
    Vec vdy = ctx.v_ld_g(dy, base + off, count);
    Vec vg = ctx.v_ld_g(gamma, off, count);
    Vec vx = ctx.v_ld_g(x, base + off, count);
    Vec g = ctx.v_mul(vdy, vg);
    Vec xhat = ctx.v_mul_s(ctx.v_add_s(vx, -mu), rs);
    va = ctx.v_add(va, g);
    vb = ctx.v_madd(g, xhat, vb);
  }
  const float a = ctx.s_mul(ctx.v_reduce_add(va), inv_d);
  const float b = ctx.s_mul(ctx.v_reduce_add(vb), inv_d);

  // dx = rstd * (dy*gamma - a - xhat*b)
  for (std::int64_t off = 0; off < row_len_; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, row_len_ - off));
    Vec vdy = ctx.v_ld_g(dy, base + off, count);
    Vec vg = ctx.v_ld_g(gamma, off, count);
    Vec vx = ctx.v_ld_g(x, base + off, count);
    Vec g = ctx.v_mul(vdy, vg);
    Vec xhat = ctx.v_mul_s(ctx.v_add_s(vx, -mu), rs);
    Vec t = ctx.v_sub(ctx.v_add_s(g, -a), ctx.v_mul_s(xhat, b));
    ctx.v_st_g(dx, base + off, ctx.v_mul_s(t, rs), count);
  }
}
template void LayerNormInputGradKernel::body(DataContext&, const Member&) const;
template void LayerNormInputGradKernel::body(CostContext&, const Member&) const;

std::uint64_t LayerNormInputGradKernel::flop_count() const {
  return static_cast<std::uint64_t>(x_.numel()) * 11;
}

// ---------------------------------------------------------------------------
// LayerNormParamGradKernel
// ---------------------------------------------------------------------------

LayerNormParamGradKernel::LayerNormParamGradKernel(
    tensor::Tensor x, tensor::Tensor mean, tensor::Tensor rstd, tensor::Tensor dy,
    tensor::Tensor dgamma, tensor::Tensor dbeta)
    : x_(std::move(x)), mean_(std::move(mean)), rstd_(std::move(rstd)),
      dy_(std::move(dy)), dgamma_(std::move(dgamma)), dbeta_(std::move(dbeta)) {
  const RowInfo ri = row_info(x_);
  row_len_ = ri.row_len;
  rows_ = ri.rows;
}

IndexSpace LayerNormParamGradKernel::index_space() const {
  return IndexSpace{{vectors_per_row(row_len_)}};
}

template <class Ctx>
void LayerNormParamGradKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto x = ro(x_);
  const auto mean = ro(mean_);
  const auto rstd = ro(rstd_);
  const auto dy = ro(dy_);
  auto dgamma = rw(dgamma_);
  auto dbeta = rw(dbeta_);
  const std::int64_t off = m.linear * kLanes;
  const int count = static_cast<int>(std::min<std::int64_t>(kLanes, row_len_ - off));

  Vec vg = ctx.v_mov(0.0f);
  Vec vbta = ctx.v_mov(0.0f);
  for (std::int64_t r = 0; r < rows_; ++r) {
    const float mu = ctx.s_ld_g(mean, r);
    const float rs = ctx.s_ld_g(rstd, r);
    Vec vdy = ctx.v_ld_g(dy, r * row_len_ + off, count);
    Vec vx = ctx.v_ld_g(x, r * row_len_ + off, count);
    Vec xhat = ctx.v_mul_s(ctx.v_add_s(vx, -mu), rs);
    vg = ctx.v_madd(vdy, xhat, vg);
    vbta = ctx.v_add(vbta, vdy);
  }
  ctx.v_st_g(dgamma, off, vg, count);
  ctx.v_st_g(dbeta, off, vbta, count);
}
template void LayerNormParamGradKernel::body(DataContext&, const Member&) const;
template void LayerNormParamGradKernel::body(CostContext&, const Member&) const;

std::uint64_t LayerNormParamGradKernel::flop_count() const {
  return static_cast<std::uint64_t>(x_.numel()) * 6;
}

// ---------------------------------------------------------------------------
// ReduceLastDimKernel
// ---------------------------------------------------------------------------

const char* reduce_kind_name(ReduceKind k) {
  switch (k) {
    case ReduceKind::kSum: return "reduce_sum";
    case ReduceKind::kMax: return "reduce_max";
    case ReduceKind::kMean: return "reduce_mean";
  }
  return "?";
}

ReduceLastDimKernel::ReduceLastDimKernel(ReduceKind kind, tensor::Tensor in,
                                         tensor::Tensor out)
    : kind_(kind), in_(std::move(in)), out_(std::move(out)) {
  const RowInfo ri = row_info(in_);
  row_len_ = ri.row_len;
  rows_ = ri.rows;
  GAUDI_CHECK(out_.shape().numel() == rows_, "reduce: output must be [..., 1]");
}

std::string ReduceLastDimKernel::name() const {
  return std::string("tpc.") + reduce_kind_name(kind_);
}

IndexSpace ReduceLastDimKernel::index_space() const { return IndexSpace{{rows_}}; }

template <class Ctx>
void ReduceLastDimKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto in = ro(in_);
  auto out = rw(out_);
  const std::int64_t base = m.linear * row_len_;
  const bool is_max = kind_ == ReduceKind::kMax;
  const float fill = is_max ? -std::numeric_limits<float>::infinity() : 0.0f;

  Vec acc = ctx.v_mov(fill);
  for (std::int64_t off = 0; off < row_len_; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, row_len_ - off));
    Vec v = ctx.v_ld_g(in, base + off, count, fill);
    acc = is_max ? ctx.v_max(acc, v) : ctx.v_add(acc, v);
  }
  float r = is_max ? ctx.v_reduce_max(acc) : ctx.v_reduce_add(acc);
  if (kind_ == ReduceKind::kMean) {
    r = ctx.s_mul(r, 1.0f / static_cast<float>(row_len_));
  }
  ctx.s_st_g(out, m.linear, r);
}
template void ReduceLastDimKernel::body(DataContext&, const Member&) const;
template void ReduceLastDimKernel::body(CostContext&, const Member&) const;

std::uint64_t ReduceLastDimKernel::flop_count() const {
  return static_cast<std::uint64_t>(in_.numel());
}

// ---------------------------------------------------------------------------
// BroadcastLastKernel
// ---------------------------------------------------------------------------

BroadcastLastKernel::BroadcastLastKernel(tensor::Tensor in, tensor::Tensor out)
    : in_(std::move(in)), out_(std::move(out)) {
  const RowInfo ri = row_info(out_);
  row_len_ = ri.row_len;
  rows_ = ri.rows;
  GAUDI_CHECK(in_.shape().numel() == rows_, "broadcast: input must be [..., 1]");
}

IndexSpace BroadcastLastKernel::index_space() const { return IndexSpace{{rows_}}; }

template <class Ctx>
void BroadcastLastKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto in = ro(in_);
  auto out = rw(out_);
  const float s = ctx.s_ld_g(in, m.linear);
  const Vec v = ctx.v_mov(s);
  const std::int64_t base = m.linear * row_len_;
  for (std::int64_t off = 0; off < row_len_; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, row_len_ - off));
    ctx.v_st_g(out, base + off, v, count);
  }
}
template void BroadcastLastKernel::body(DataContext&, const Member&) const;
template void BroadcastLastKernel::body(CostContext&, const Member&) const;

// ---------------------------------------------------------------------------
// ColumnSumKernel
// ---------------------------------------------------------------------------

ColumnSumKernel::ColumnSumKernel(tensor::Tensor in, tensor::Tensor out)
    : in_(std::move(in)), out_(std::move(out)) {
  const RowInfo ri = row_info(in_);
  cols_ = ri.row_len;
  rows_ = ri.rows;
  GAUDI_CHECK(out_.shape().rank() == 1 && out_.shape()[0] == cols_,
              "column sum: output must be [D]");
}

IndexSpace ColumnSumKernel::index_space() const {
  return IndexSpace{{vectors_per_row(cols_)}};
}

template <class Ctx>
void ColumnSumKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto in = ro(in_);
  auto out = rw(out_);
  const std::int64_t off = m.linear * kLanes;
  const int count = static_cast<int>(std::min<std::int64_t>(kLanes, cols_ - off));
  Vec acc = ctx.v_mov(0.0f);
  for (std::int64_t r = 0; r < rows_; ++r) {
    acc = ctx.v_add(acc, ctx.v_ld_g(in, r * cols_ + off, count));
  }
  ctx.v_st_g(out, off, acc, count);
}
template void ColumnSumKernel::body(DataContext&, const Member&) const;
template void ColumnSumKernel::body(CostContext&, const Member&) const;

std::uint64_t ColumnSumKernel::flop_count() const {
  return static_cast<std::uint64_t>(in_.numel());
}

// ---------------------------------------------------------------------------
// ConcatRowsKernel / SliceRowsKernel
// ---------------------------------------------------------------------------

ConcatRowsKernel::ConcatRowsKernel(tensor::Tensor a, tensor::Tensor b,
                                   tensor::Tensor out)
    : a_(std::move(a)), b_(std::move(b)), out_(std::move(out)) {
  GAUDI_CHECK(a_.shape().rank() >= 2 && b_.shape().rank() == a_.shape().rank(),
              "concat_rows: rank mismatch");
  cols_ = a_.shape()[a_.shape().rank() - 1];
  GAUDI_CHECK(b_.shape()[b_.shape().rank() - 1] == cols_,
              "concat_rows: trailing dims must match");
  rows_a_ = a_.shape()[a_.shape().rank() - 2];
  rows_b_ = b_.shape()[b_.shape().rank() - 2];
  batch_ = a_.shape().batch_count(2);
  GAUDI_CHECK(b_.shape().batch_count(2) == batch_,
              "concat_rows: batch dims must match");
  GAUDI_CHECK(out_.shape().numel() == batch_ * (rows_a_ + rows_b_) * cols_,
              "concat_rows: output shape mismatch");
}

IndexSpace ConcatRowsKernel::index_space() const {
  return IndexSpace{{batch_, rows_a_ + rows_b_}};
}

template <class Ctx>
void ConcatRowsKernel::body(Ctx& ctx, const Member& m) const {
  const auto a = ro(a_);
  const auto b = ro(b_);
  auto out = rw(out_);
  const std::int64_t batch = m[0];
  const std::int64_t row = m[1];
  const bool from_a = row < rows_a_;
  const auto src = from_a ? a : b;
  const std::int64_t src_base =
      from_a ? (batch * rows_a_ + row) * cols_
             : (batch * rows_b_ + (row - rows_a_)) * cols_;
  const std::int64_t dst_base = (batch * (rows_a_ + rows_b_) + row) * cols_;
  for (std::int64_t j = 0; j < cols_; j += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, cols_ - j));
    ctx.v_st_g(out, dst_base + j, ctx.v_ld_g(src, src_base + j, count), count);
  }
}
template void ConcatRowsKernel::body(DataContext&, const Member&) const;
template void ConcatRowsKernel::body(CostContext&, const Member&) const;

SliceRowsKernel::SliceRowsKernel(tensor::Tensor in, tensor::Tensor out,
                                 std::int64_t begin)
    : in_(std::move(in)), out_(std::move(out)), begin_(begin) {
  GAUDI_CHECK(in_.shape().rank() >= 2, "slice_rows: rank >= 2 required");
  cols_ = in_.shape()[in_.shape().rank() - 1];
  rows_in_ = in_.shape()[in_.shape().rank() - 2];
  rows_out_ = out_.shape()[out_.shape().rank() - 2];
  batch_ = in_.shape().batch_count(2);
  GAUDI_CHECK(begin_ >= 0 && begin_ + rows_out_ <= rows_in_,
              "slice_rows: range out of bounds");
  GAUDI_CHECK(out_.shape()[out_.shape().rank() - 1] == cols_ &&
                  out_.shape().batch_count(2) == batch_,
              "slice_rows: output shape mismatch");
}

IndexSpace SliceRowsKernel::index_space() const {
  return IndexSpace{{batch_, rows_out_}};
}

template <class Ctx>
void SliceRowsKernel::body(Ctx& ctx, const Member& m) const {
  const auto in = ro(in_);
  auto out = rw(out_);
  const std::int64_t batch = m[0];
  const std::int64_t row = m[1];
  const std::int64_t src_base = (batch * rows_in_ + begin_ + row) * cols_;
  const std::int64_t dst_base = (batch * rows_out_ + row) * cols_;
  for (std::int64_t j = 0; j < cols_; j += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, cols_ - j));
    ctx.v_st_g(out, dst_base + j, ctx.v_ld_g(in, src_base + j, count), count);
  }
}
template void SliceRowsKernel::body(DataContext&, const Member&) const;
template void SliceRowsKernel::body(CostContext&, const Member&) const;

// ---------------------------------------------------------------------------
// AddMask2DKernel
// ---------------------------------------------------------------------------

AddMask2DKernel::AddMask2DKernel(tensor::Tensor in, tensor::Tensor mask,
                                 tensor::Tensor out)
    : in_(std::move(in)), mask_(std::move(mask)), out_(std::move(out)) {
  GAUDI_CHECK(in_.shape().rank() >= 2, "add_mask expects rank >= 2 input");
  rows_ = in_.shape()[in_.shape().rank() - 2];
  cols_ = in_.shape()[in_.shape().rank() - 1];
  batch_ = in_.shape().batch_count(2);
  GAUDI_CHECK(mask_.shape().rank() == 2 && mask_.shape()[0] == rows_ &&
                  mask_.shape()[1] == cols_,
              "add_mask mask must be [rows, cols]");
  GAUDI_CHECK(out_.shape().numel() == in_.shape().numel(),
              "add_mask output shape mismatch");
}

IndexSpace AddMask2DKernel::index_space() const {
  return IndexSpace{{batch_, rows_}};
}

template <class Ctx>
void AddMask2DKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto in = ro(in_);
  const auto mask = ro(mask_);
  auto out = rw(out_);
  const std::int64_t base = (m[0] * rows_ + m[1]) * cols_;
  const std::int64_t mask_base = m[1] * cols_;
  for (std::int64_t j = 0; j < cols_; j += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, cols_ - j));
    Vec a = ctx.v_ld_g(in, base + j, count);
    Vec b = ctx.v_ld_g(mask, mask_base + j, count);
    ctx.v_st_g(out, base + j, ctx.v_add(a, b), count);
  }
}
template void AddMask2DKernel::body(DataContext&, const Member&) const;
template void AddMask2DKernel::body(CostContext&, const Member&) const;

std::uint64_t AddMask2DKernel::flop_count() const {
  return static_cast<std::uint64_t>(in_.numel());
}

// ---------------------------------------------------------------------------
// SwapAxes12Kernel
// ---------------------------------------------------------------------------

SwapAxes12Kernel::SwapAxes12Kernel(tensor::Tensor in, tensor::Tensor out)
    : in_(std::move(in)), out_(std::move(out)) {
  GAUDI_CHECK(in_.shape().rank() == 4, "swap_axes12 expects rank-4 input");
  a_ = in_.shape()[0];
  b_ = in_.shape()[1];
  c_ = in_.shape()[2];
  d_ = in_.shape()[3];
  GAUDI_CHECK(out_.shape().rank() == 4 && out_.shape()[0] == a_ &&
                  out_.shape()[1] == c_ && out_.shape()[2] == b_ &&
                  out_.shape()[3] == d_,
              "swap_axes12 output must be [A, C, B, D]");
}

IndexSpace SwapAxes12Kernel::index_space() const {
  return IndexSpace{{a_, c_, b_}};
}

template <class Ctx>
void SwapAxes12Kernel::body(Ctx& ctx, const Member& m) const {
  const auto in = ro(in_);
  auto out = rw(out_);
  const std::int64_t a = m[0];
  const std::int64_t c = m[1];
  const std::int64_t b = m[2];
  const std::int64_t src = ((a * b_ + b) * c_ + c) * d_;
  const std::int64_t dst = ((a * c_ + c) * b_ + b) * d_;
  for (std::int64_t j = 0; j < d_; j += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, d_ - j));
    ctx.v_st_g(out, dst + j, ctx.v_ld_g(in, src + j, count), count);
  }
}
template void SwapAxes12Kernel::body(DataContext&, const Member&) const;
template void SwapAxes12Kernel::body(CostContext&, const Member&) const;

// ---------------------------------------------------------------------------
// TransposeLast2Kernel
// ---------------------------------------------------------------------------

TransposeLast2Kernel::TransposeLast2Kernel(tensor::Tensor in, tensor::Tensor out)
    : in_(std::move(in)), out_(std::move(out)) {
  GAUDI_CHECK(in_.shape().rank() >= 2, "transpose expects rank >= 2");
  m_ = in_.shape()[in_.shape().rank() - 2];
  n_ = in_.shape()[in_.shape().rank() - 1];
  batch_ = in_.shape().batch_count(2);
  GAUDI_CHECK(out_.shape()[out_.shape().rank() - 2] == n_ &&
                  out_.shape()[out_.shape().rank() - 1] == m_,
              "transpose: output trailing dims must be swapped");
}

IndexSpace TransposeLast2Kernel::index_space() const {
  const std::int64_t mt = (m_ + kLanes - 1) / kLanes;
  const std::int64_t nt = (n_ + kLanes - 1) / kLanes;
  return IndexSpace{{batch_, mt, nt}};
}

template <class Ctx>
void TransposeLast2Kernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto in = ro(in_);
  auto out = rw(out_);
  const std::int64_t b = m[0];
  const std::int64_t i0 = m[1] * kLanes;
  const std::int64_t j0 = m[2] * kLanes;
  const std::int64_t rows = std::min<std::int64_t>(kLanes, m_ - i0);
  const std::int64_t cols = std::min<std::int64_t>(kLanes, n_ - j0);
  const std::int64_t in_base = b * m_ * n_;
  const std::int64_t out_base = b * m_ * n_;

  // Stage the 64x64 tile row-by-row into local memory.
  for (std::int64_t i = 0; i < rows; ++i) {
    Vec v = ctx.v_ld_g(in, in_base + (i0 + i) * n_ + j0, static_cast<int>(cols));
    ctx.v_st_l(i, v);
  }
  // In-register transpose network: log2(64) shuffle stages per output vector.
  // We charge the shuffles and materialize columns from local memory.
  for (std::int64_t j = 0; j < cols; ++j) {
    Vec col{};
    for (std::int64_t i = 0; i < rows; ++i) {
      const float x = ctx.s_ld_l(i, static_cast<int>(j));
      if constexpr (Ctx::carries_data) col.lane[static_cast<std::size_t>(i)] = x;
    }
    ctx.v_st_g(out, out_base + (j0 + j) * m_ + i0, col, static_cast<int>(rows));
  }
}
template void TransposeLast2Kernel::body(DataContext&, const Member&) const;
template void TransposeLast2Kernel::body(CostContext&, const Member&) const;

}  // namespace gaudi::tpc
