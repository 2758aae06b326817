// NLP-specific TPC kernels: embedding gather/scatter and cross-entropy.
#include "tpc/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gaudi::tpc {

// ---------------------------------------------------------------------------
// EmbeddingGatherKernel
// ---------------------------------------------------------------------------

EmbeddingGatherKernel::EmbeddingGatherKernel(tensor::Tensor table, tensor::Tensor ids,
                                             tensor::Tensor out)
    : table_(std::move(table)), ids_(std::move(ids)), out_(std::move(out)) {
  GAUDI_CHECK(table_.shape().rank() == 2, "embedding table must be [V, D]");
  dim_ = table_.shape()[1];
  tokens_ = ids_.numel();
  GAUDI_CHECK(out_.numel() == tokens_ * dim_, "embedding output shape mismatch");
}

IndexSpace EmbeddingGatherKernel::index_space() const {
  return IndexSpace{{tokens_}};
}

template <class Ctx>
void EmbeddingGatherKernel::body(Ctx& ctx, const Member& m) const {
  const auto table = ro(table_);
  const auto ids = ro_i32(ids_);
  auto out = rw(out_);
  const std::int32_t id = ctx.i_ld_g(ids, m.linear);
  const std::int64_t src = static_cast<std::int64_t>(id) * dim_;
  const std::int64_t dst = m.linear * dim_;
  for (std::int64_t j = 0; j < dim_; j += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, dim_ - j));
    ctx.v_st_g(out, dst + j, ctx.v_ld_g(table, src + j, count), count);
  }
}
template void EmbeddingGatherKernel::body(DataContext&, const Member&) const;
template void EmbeddingGatherKernel::body(CostContext&, const Member&) const;

// ---------------------------------------------------------------------------
// EmbeddingGradKernel
// ---------------------------------------------------------------------------

EmbeddingGradKernel::EmbeddingGradKernel(tensor::Tensor ids, tensor::Tensor dy,
                                         tensor::Tensor dtable)
    : ids_(std::move(ids)), dy_(std::move(dy)), dtable_(std::move(dtable)) {
  GAUDI_CHECK(dtable_.shape().rank() == 2, "embedding grad table must be [V, D]");
  dim_ = dtable_.shape()[1];
  tokens_ = ids_.numel();
  GAUDI_CHECK(dy_.numel() == tokens_ * dim_, "embedding grad dy shape mismatch");
}

IndexSpace EmbeddingGradKernel::index_space() const {
  // Members own column chunks: the scatter-add over tokens is race-free.
  return IndexSpace{{(dim_ + kLanes - 1) / kLanes}};
}

template <class Ctx>
void EmbeddingGradKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto ids = ro_i32(ids_);
  const auto dy = ro(dy_);
  auto dtable = rw(dtable_);
  const std::int64_t j = m.linear * kLanes;
  const int count = static_cast<int>(std::min<std::int64_t>(kLanes, dim_ - j));
  for (std::int64_t t = 0; t < tokens_; ++t) {
    const std::int32_t id = ctx.i_ld_g(ids, t);
    const std::int64_t row = static_cast<std::int64_t>(id) * dim_;
    Vec acc = ctx.v_ld_g(dtable, row + j, count);
    Vec g = ctx.v_ld_g(dy, t * dim_ + j, count);
    ctx.v_st_g(dtable, row + j, ctx.v_add(acc, g), count);
  }
}
template void EmbeddingGradKernel::body(DataContext&, const Member&) const;
template void EmbeddingGradKernel::body(CostContext&, const Member&) const;

// ---------------------------------------------------------------------------
// CrossEntropyKernel
// ---------------------------------------------------------------------------

CrossEntropyKernel::CrossEntropyKernel(tensor::Tensor logits, tensor::Tensor targets,
                                       tensor::Tensor loss_per_row)
    : logits_(std::move(logits)), targets_(std::move(targets)),
      loss_(std::move(loss_per_row)) {
  GAUDI_CHECK(logits_.shape().rank() == 2, "cross entropy expects [N, V] logits");
  rows_ = logits_.shape()[0];
  vocab_ = logits_.shape()[1];
  GAUDI_CHECK(targets_.numel() == rows_, "cross entropy target count mismatch");
  GAUDI_CHECK(loss_.numel() == rows_, "cross entropy loss buffer mismatch");
}

IndexSpace CrossEntropyKernel::index_space() const { return IndexSpace{{rows_}}; }

template <class Ctx>
void CrossEntropyKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto logits = ro(logits_);
  const auto targets = ro_i32(targets_);
  auto loss = rw(loss_);
  const std::int64_t base = m.linear * vocab_;
  const float neg_inf = -std::numeric_limits<float>::infinity();

  Vec vmax = ctx.v_mov(neg_inf);
  for (std::int64_t off = 0; off < vocab_; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, vocab_ - off));
    vmax = ctx.v_max(vmax, ctx.v_ld_g(logits, base + off, count, neg_inf));
  }
  const float mx = ctx.v_reduce_max(vmax);
  // A fully-masked row (every logit -inf) assigns the target probability
  // zero: the defined loss is +inf, not the NaN the generic path's
  // exp(-inf + inf) would produce.  Host-side selects (subtract 0 instead
  // of the max, patch the stored loss) keep the instruction stream — and so
  // the cycle count in both contexts — identical to the generic path.
  const bool masked = mx == neg_inf;
  const float safe_mx = masked ? 0.0f : mx;

  Vec vsum = ctx.v_mov(0.0f);
  for (std::int64_t off = 0; off < vocab_; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, vocab_ - off));
    Vec x = ctx.v_ld_g(logits, base + off, count, neg_inf);
    vsum = ctx.v_add(vsum, ctx.v_exp(ctx.v_add_s(x, -safe_mx)));
  }
  const float lse = ctx.s_add(std::log(ctx.v_reduce_add(vsum)), safe_mx);
  ctx.s_bookkeeping();  // the scalar log rides the SPU special path

  const std::int32_t tgt = ctx.i_ld_g(targets, m.linear);
  const float l = ctx.s_add(lse, -ctx.s_ld_g(logits, base + tgt));
  ctx.s_st_g(loss, m.linear,
             masked ? std::numeric_limits<float>::infinity() : l);
}
template void CrossEntropyKernel::body(DataContext&, const Member&) const;
template void CrossEntropyKernel::body(CostContext&, const Member&) const;

std::uint64_t CrossEntropyKernel::flop_count() const {
  return static_cast<std::uint64_t>(logits_.numel()) * 4;
}

// ---------------------------------------------------------------------------
// CrossEntropyGradKernel
// ---------------------------------------------------------------------------

CrossEntropyGradKernel::CrossEntropyGradKernel(tensor::Tensor logits,
                                               tensor::Tensor targets,
                                               tensor::Tensor dlogits, float scale)
    : logits_(std::move(logits)), targets_(std::move(targets)),
      dlogits_(std::move(dlogits)), scale_(scale) {
  GAUDI_CHECK(logits_.shape().rank() == 2, "cross entropy grad expects [N, V]");
  rows_ = logits_.shape()[0];
  vocab_ = logits_.shape()[1];
  GAUDI_CHECK(targets_.numel() == rows_, "cross entropy grad target count mismatch");
  GAUDI_CHECK(dlogits_.numel() == logits_.numel(),
              "cross entropy grad output mismatch");
}

IndexSpace CrossEntropyGradKernel::index_space() const { return IndexSpace{{rows_}}; }

template <class Ctx>
void CrossEntropyGradKernel::body(Ctx& ctx, const Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto logits = ro(logits_);
  const auto targets = ro_i32(targets_);
  auto dlogits = rw(dlogits_);
  const std::int64_t base = m.linear * vocab_;
  const float neg_inf = -std::numeric_limits<float>::infinity();

  Vec vmax = ctx.v_mov(neg_inf);
  for (std::int64_t off = 0; off < vocab_; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, vocab_ - off));
    vmax = ctx.v_max(vmax, ctx.v_ld_g(logits, base + off, count, neg_inf));
  }
  const float mx = ctx.v_reduce_max(vmax);
  // Fully-masked row: the softmax (and so its gradient) is undefined; the
  // defined choice is a zero gradient row rather than NaN contamination.
  // Same host-side-select treatment as the forward kernel: exponentials
  // become exp(-inf) = 0, the guarded reciprocal keeps 0 * inv finite, and
  // the one-hot subtraction is skipped — the instruction stream (and the
  // cycle count in both execution modes) matches the generic path.
  const bool masked = mx == neg_inf;
  const float safe_mx = masked ? 0.0f : mx;

  Vec vsum = ctx.v_mov(0.0f);
  for (std::int64_t off = 0; off < vocab_; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, vocab_ - off));
    Vec x = ctx.v_ld_g(logits, base + off, count, neg_inf);
    vsum = ctx.v_add(vsum, ctx.v_exp(ctx.v_add_s(x, -safe_mx)));
  }
  const float inv_sum = ctx.s_recip(std::max(
      ctx.v_reduce_add(vsum), std::numeric_limits<float>::min()));

  const std::int32_t tgt = ctx.i_ld_g(targets, m.linear);
  for (std::int64_t off = 0; off < vocab_; off += kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(kLanes, vocab_ - off));
    Vec x = ctx.v_ld_g(logits, base + off, count, neg_inf);
    Vec p = ctx.v_mul_s(ctx.v_exp(ctx.v_add_s(x, -safe_mx)), inv_sum);
    if constexpr (Ctx::carries_data) {
      // Subtract the one-hot target lane; branch is on coordinates, not data.
      if (!masked && tgt >= off && tgt < off + count) {
        p.lane[static_cast<std::size_t>(tgt - off)] -= 1.0f;
      }
    }
    ctx.s_bookkeeping();  // one-hot lane adjustment
    ctx.v_st_g(dlogits, base + off, ctx.v_mul_s(p, scale_), count);
  }
}
template void CrossEntropyGradKernel::body(DataContext&, const Member&) const;
template void CrossEntropyGradKernel::body(CostContext&, const Member&) const;

std::uint64_t CrossEntropyGradKernel::flop_count() const {
  return static_cast<std::uint64_t>(logits_.numel()) * 6;
}

}  // namespace gaudi::tpc
