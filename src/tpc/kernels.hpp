// TPC kernel library.
//
// Everything SynapseAI maps to the TPC in the paper's Table 1 — plus the
// layer-level kernels (softmax, layernorm, transpose, gather, cross-entropy,
// batched matmul-on-TPC) needed by the Transformer experiments — is
// implemented here against the kernel framework.  Each kernel's one member
// body both computes (over a DataContext, functional mode) and self-times
// (its instruction stream charges VLIW slots, over either context), so
// observed performance characteristics emerge from kernel structure, not
// from hand-written cost formulas.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "tpc/kernel.hpp"

namespace gaudi::tpc {

// ---------------------------------------------------------------------------
// Element-wise kernels
// ---------------------------------------------------------------------------

enum class UnaryKind : std::uint8_t {
  kExp, kLog, kSqrt, kSquare, kRecip,
  kRelu, kLeakyRelu, kElu, kGelu, kSigmoid, kTanh, kNeg, kAbs,
};
[[nodiscard]] const char* unary_kind_name(UnaryKind k);

/// out[i] = f(in[i]); index space over 512-element chunks.
class UnaryEwKernel final : public KernelBody<UnaryEwKernel> {
 public:
  UnaryEwKernel(UnaryKind kind, tensor::Tensor in, tensor::Tensor out,
                float alpha = 1.0f);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  UnaryKind kind_;
  tensor::Tensor in_, out_;
  float alpha_;
};

/// dx[i] = dy[i] * f'(x[i]) — backward of UnaryEwKernel.
class UnaryGradKernel final : public KernelBody<UnaryGradKernel> {
 public:
  UnaryGradKernel(UnaryKind kind, tensor::Tensor x, tensor::Tensor dy,
                  tensor::Tensor dx, float alpha = 1.0f);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  UnaryKind kind_;
  tensor::Tensor x_, dy_, dx_;
  float alpha_;
};

enum class BinaryKind : std::uint8_t { kAdd, kSub, kMul, kDiv, kMax };
[[nodiscard]] const char* binary_kind_name(BinaryKind k);

/// out[i] = f(a[i], b[i]) — "tensor +- tensor", torch.mul, ... (Table 1).
class BinaryEwKernel final : public KernelBody<BinaryEwKernel> {
 public:
  BinaryEwKernel(BinaryKind kind, tensor::Tensor a, tensor::Tensor b,
                 tensor::Tensor out);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  BinaryKind kind_;
  tensor::Tensor a_, b_, out_;
};

enum class ScalarKind : std::uint8_t { kAddS, kSubS, kRsubS, kMulS };
[[nodiscard]] const char* scalar_kind_name(ScalarKind k);

/// out[i] = f(in[i], s) — "scalar * tensor", "scalar +- tensor" (Table 1).
class ScalarEwKernel final : public KernelBody<ScalarEwKernel> {
 public:
  ScalarEwKernel(ScalarKind kind, tensor::Tensor in, float scalar,
                 tensor::Tensor out);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  ScalarKind kind_;
  tensor::Tensor in_, out_;
  float scalar_;
};

/// out[i] = value (torch.ones_like and friends).
class FillKernel final : public KernelBody<FillKernel> {
 public:
  FillKernel(tensor::Tensor out, float value);
  [[nodiscard]] std::string name() const override { return "tpc.fill"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;

 private:
  tensor::Tensor out_;
  float value_;
};

/// out[r, :] = in[r, :] (+|*) v[:] — bias add / per-channel scale.
class RowvecKernel final : public KernelBody<RowvecKernel> {
 public:
  enum class Op : std::uint8_t { kAdd, kMul };
  RowvecKernel(Op op, tensor::Tensor in, tensor::Tensor vec, tensor::Tensor out);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  Op op_;
  tensor::Tensor in_, vec_, out_;
};

/// Gated linear unit over the last dim: in [..., 2D] -> out [..., D],
/// out = a * sigmoid(b).  The paper singles GLU out as the worst-performing
/// activation on TPC (Fig 7).
class GluKernel final : public KernelBody<GluKernel> {
 public:
  GluKernel(tensor::Tensor in, tensor::Tensor out);
  [[nodiscard]] std::string name() const override { return "tpc.glu"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor in_, out_;
};

/// Backward of GLU: din [..., 2D] from dout [..., D] and saved input.
class GluGradKernel final : public KernelBody<GluGradKernel> {
 public:
  GluGradKernel(tensor::Tensor in, tensor::Tensor dout, tensor::Tensor din);
  [[nodiscard]] std::string name() const override { return "tpc.glu_grad"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor in_, dout_, din_;
};

/// Precision cast between f32 and bf16 (either direction).  bf16 halves the
/// global-memory traffic on its side of the copy.
class CastKernel final : public KernelBody<CastKernel> {
 public:
  CastKernel(tensor::Tensor in, tensor::Tensor out);
  [[nodiscard]] std::string name() const override { return "tpc.cast"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;

 private:
  tensor::Tensor in_, out_;
};

/// Inverted dropout using the TPC hardware RNG.
class DropoutKernel final : public KernelBody<DropoutKernel> {
 public:
  DropoutKernel(tensor::Tensor in, tensor::Tensor out, float p,
                std::uint64_t seed_offset);
  [[nodiscard]] std::string name() const override { return "tpc.dropout"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor in_, out_;
  float p_;
  std::uint64_t seed_offset_;
};

// ---------------------------------------------------------------------------
// Row kernels: softmax / layernorm / reductions (kernels_reduce.cpp)
// ---------------------------------------------------------------------------

/// Row-wise numerically-stable softmax over the last dim.  Caches the row in
/// vector local memory when it fits; the three passes (max-reduce, exp+sum,
/// normalize) are the reduction-heavy structure the paper identifies as the
/// TPC bottleneck.
class SoftmaxKernel final : public KernelBody<SoftmaxKernel> {
 public:
  SoftmaxKernel(tensor::Tensor in, tensor::Tensor out);
  [[nodiscard]] std::string name() const override { return "tpc.softmax"; }
  [[nodiscard]] IndexSpace index_space() const override;
  [[nodiscard]] std::size_t local_memory_vectors() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor in_, out_;
  std::int64_t row_len_, rows_;
  bool cache_row_;
};

/// dx = y ⊙ (dy − sum(y ⊙ dy)) row-wise — backward of softmax.
class SoftmaxGradKernel final : public KernelBody<SoftmaxGradKernel> {
 public:
  SoftmaxGradKernel(tensor::Tensor y, tensor::Tensor dy, tensor::Tensor dx);
  [[nodiscard]] std::string name() const override { return "tpc.softmax_grad"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor y_, dy_, dx_;
  std::int64_t row_len_, rows_;
};

/// Row-wise layer normalization; saves mean and reciprocal stddev for the
/// backward pass when those tensors are provided.
class LayerNormKernel final : public KernelBody<LayerNormKernel> {
 public:
  LayerNormKernel(tensor::Tensor x, tensor::Tensor gamma, tensor::Tensor beta,
                  tensor::Tensor y, tensor::Tensor save_mean,
                  tensor::Tensor save_rstd, float eps = 1e-5f);
  [[nodiscard]] std::string name() const override { return "tpc.layernorm"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor x_, gamma_, beta_, y_, mean_, rstd_;
  std::int64_t row_len_, rows_;
  float eps_;
};

/// Input gradient of layernorm (per-row; uses saved mean/rstd).
class LayerNormInputGradKernel final : public KernelBody<LayerNormInputGradKernel> {
 public:
  LayerNormInputGradKernel(tensor::Tensor x, tensor::Tensor gamma,
                           tensor::Tensor mean, tensor::Tensor rstd,
                           tensor::Tensor dy, tensor::Tensor dx);
  [[nodiscard]] std::string name() const override { return "tpc.layernorm_dx"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor x_, gamma_, mean_, rstd_, dy_, dx_;
  std::int64_t row_len_, rows_;
};

/// Parameter gradients of layernorm: members own column chunks so the
/// row-reduction is race-free.
class LayerNormParamGradKernel final : public KernelBody<LayerNormParamGradKernel> {
 public:
  LayerNormParamGradKernel(tensor::Tensor x, tensor::Tensor mean,
                           tensor::Tensor rstd, tensor::Tensor dy,
                           tensor::Tensor dgamma, tensor::Tensor dbeta);
  [[nodiscard]] std::string name() const override { return "tpc.layernorm_dparam"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor x_, mean_, rstd_, dy_, dgamma_, dbeta_;
  std::int64_t row_len_, rows_;
};

enum class ReduceKind : std::uint8_t { kSum, kMax, kMean };
[[nodiscard]] const char* reduce_kind_name(ReduceKind k);

/// [..., D] -> [..., 1] reduction over the last dim.
class ReduceLastDimKernel final : public KernelBody<ReduceLastDimKernel> {
 public:
  ReduceLastDimKernel(ReduceKind kind, tensor::Tensor in, tensor::Tensor out);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  ReduceKind kind_;
  tensor::Tensor in_, out_;
  std::int64_t row_len_, rows_;
};

/// [..., 1] -> [..., D]: broadcast a per-row scalar across the last dim.
class BroadcastLastKernel final : public KernelBody<BroadcastLastKernel> {
 public:
  BroadcastLastKernel(tensor::Tensor in, tensor::Tensor out);
  [[nodiscard]] std::string name() const override { return "tpc.broadcast_last"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;

 private:
  tensor::Tensor in_, out_;
  std::int64_t row_len_, rows_;
};

/// [R, D] -> [D]: column sums (bias gradients).  Members own column chunks.
class ColumnSumKernel final : public KernelBody<ColumnSumKernel> {
 public:
  ColumnSumKernel(tensor::Tensor in, tensor::Tensor out);
  [[nodiscard]] std::string name() const override { return "tpc.column_sum"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor in_, out_;
  std::int64_t rows_, cols_;
};

/// out[..., i, j] = in[..., i, j] + mask[i, j]: additive attention mask
/// broadcast over the leading (batch*heads) dims — how causal masking
/// reaches the TPC in a GPT-style model.
class AddMask2DKernel final : public KernelBody<AddMask2DKernel> {
 public:
  AddMask2DKernel(tensor::Tensor in, tensor::Tensor mask, tensor::Tensor out);
  [[nodiscard]] std::string name() const override { return "tpc.add_mask"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor in_, mask_, out_;
  std::int64_t batch_, rows_, cols_;
};

/// [A, B, C, D] -> [A, C, B, D]: the head-split/merge permutation of
/// multi-head attention (PyTorch's .transpose(1, 2)).  The innermost dim is
/// contiguous on both sides, so this is a vector-copy with strided bases.
class SwapAxes12Kernel final : public KernelBody<SwapAxes12Kernel> {
 public:
  SwapAxes12Kernel(tensor::Tensor in, tensor::Tensor out);
  [[nodiscard]] std::string name() const override { return "tpc.swap_axes12"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;

 private:
  tensor::Tensor in_, out_;
  std::int64_t a_, b_, c_, d_;
};

/// Concatenate along the row axis (rank-2): a [.., Ma, D] ++ b [.., Mb, D]
/// -> out [.., Ma+Mb, D].  The KV-cache append of autoregressive decoding.
class ConcatRowsKernel final : public KernelBody<ConcatRowsKernel> {
 public:
  ConcatRowsKernel(tensor::Tensor a, tensor::Tensor b, tensor::Tensor out);
  [[nodiscard]] std::string name() const override { return "tpc.concat_rows"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;

 private:
  tensor::Tensor a_, b_, out_;
  std::int64_t batch_, rows_a_, rows_b_, cols_;
};

/// Slice `count` rows starting at `begin` along the row axis (rank-2).
class SliceRowsKernel final : public KernelBody<SliceRowsKernel> {
 public:
  SliceRowsKernel(tensor::Tensor in, tensor::Tensor out, std::int64_t begin);
  [[nodiscard]] std::string name() const override { return "tpc.slice_rows"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;

 private:
  tensor::Tensor in_, out_;
  std::int64_t batch_, rows_in_, rows_out_, cols_, begin_;
};

/// Swap the trailing two dims via 64x64 local-memory tiles.
class TransposeLast2Kernel final : public KernelBody<TransposeLast2Kernel> {
 public:
  TransposeLast2Kernel(tensor::Tensor in, tensor::Tensor out);
  [[nodiscard]] std::string name() const override { return "tpc.transpose"; }
  [[nodiscard]] IndexSpace index_space() const override;
  [[nodiscard]] std::size_t local_memory_vectors() const override { return 64; }
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;

 private:
  tensor::Tensor in_, out_;
  std::int64_t batch_, m_, n_;
};

// ---------------------------------------------------------------------------
// Batched matmul on TPC (kernels_matmul.cpp) — the Table 2 comparator
// ---------------------------------------------------------------------------

/// C[b] = A[b] @ B[b] computed entirely on the TPC cluster, after the
/// structure of Habana's custom-kernel example: 32-row output tiles, 64-wide
/// k-blocks staged through vector local memory, FMA inner loop.  Exists to
/// quantify the MME/TPC gap (paper §3.2), not to be a good idea.
class BatchedMatMulTpcKernel final : public KernelBody<BatchedMatMulTpcKernel> {
 public:
  BatchedMatMulTpcKernel(tensor::Tensor a, tensor::Tensor b, tensor::Tensor c);
  [[nodiscard]] std::string name() const override { return "tpc.batched_matmul"; }
  [[nodiscard]] IndexSpace index_space() const override;
  [[nodiscard]] std::size_t local_memory_vectors() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

  static constexpr std::int64_t kRowTile = 32;  ///< output rows per member
  static constexpr std::int64_t kKBlock = 64;   ///< k-extent staged in local mem

 private:
  tensor::Tensor a_, b_, c_;
  std::int64_t batch_, m_, k_, n_;
};

// ---------------------------------------------------------------------------
// Optimizer kernels (kernels_optim.cpp) — parameter updates run on-device
// (they are element-wise, so Table 1 routes them to the TPC)
// ---------------------------------------------------------------------------

/// SGD with optional momentum:
///   vel' = mu * vel + grad;  param' = param - lr * vel'
/// With mu == 0 the velocity tensors may be empty and the update is plain
/// param' = param - lr * grad.
class SgdUpdateKernel final : public KernelBody<SgdUpdateKernel> {
 public:
  SgdUpdateKernel(tensor::Tensor param, tensor::Tensor grad,
                  tensor::Tensor param_out, tensor::Tensor vel,
                  tensor::Tensor vel_out, float lr, float momentum);
  [[nodiscard]] std::string name() const override { return "tpc.sgd_update"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor param_, grad_, param_out_, vel_, vel_out_;
  float lr_, momentum_;
};

/// Adam (Kingma & Ba), with bias correction folded into the step size:
///   m' = b1*m + (1-b1)*g;  v' = b2*v + (1-b2)*g^2
///   param' = param - lr * sqrt(1-b2^t)/(1-b1^t) * m' / (sqrt(v') + eps)
class AdamUpdateKernel final : public KernelBody<AdamUpdateKernel> {
 public:
  AdamUpdateKernel(tensor::Tensor param, tensor::Tensor grad, tensor::Tensor m,
                   tensor::Tensor v, tensor::Tensor param_out, tensor::Tensor m_out,
                   tensor::Tensor v_out, float lr, float beta1, float beta2,
                   float eps, std::int64_t step);
  [[nodiscard]] std::string name() const override { return "tpc.adam_update"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor param_, grad_, m_, v_, param_out_, m_out_, v_out_;
  float lr_, beta1_, beta2_, eps_;
  std::int64_t step_;
};

// ---------------------------------------------------------------------------
// NLP kernels (kernels_nlp.cpp)
// ---------------------------------------------------------------------------

/// out[t, :] = table[ids[t], :].
class EmbeddingGatherKernel final : public KernelBody<EmbeddingGatherKernel> {
 public:
  EmbeddingGatherKernel(tensor::Tensor table, tensor::Tensor ids, tensor::Tensor out);
  [[nodiscard]] std::string name() const override { return "tpc.embedding"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;

 private:
  tensor::Tensor table_, ids_, out_;
  std::int64_t tokens_, dim_;
};

/// dtable[ids[t], :] += dy[t, :]; members own column chunks (race-free).
class EmbeddingGradKernel final : public KernelBody<EmbeddingGradKernel> {
 public:
  EmbeddingGradKernel(tensor::Tensor ids, tensor::Tensor dy, tensor::Tensor dtable);
  [[nodiscard]] std::string name() const override { return "tpc.embedding_grad"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;

 private:
  tensor::Tensor ids_, dy_, dtable_;
  std::int64_t tokens_, dim_;
};

/// Per-row cross-entropy: loss[r] = logsumexp(logits[r]) - logits[r, tgt[r]].
class CrossEntropyKernel final : public KernelBody<CrossEntropyKernel> {
 public:
  CrossEntropyKernel(tensor::Tensor logits, tensor::Tensor targets,
                     tensor::Tensor loss_per_row);
  [[nodiscard]] std::string name() const override { return "tpc.cross_entropy"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor logits_, targets_, loss_;
  std::int64_t rows_, vocab_;
};

/// dlogits = (softmax(logits) - onehot(target)) * scale.
class CrossEntropyGradKernel final : public KernelBody<CrossEntropyGradKernel> {
 public:
  CrossEntropyGradKernel(tensor::Tensor logits, tensor::Tensor targets,
                         tensor::Tensor dlogits, float scale);
  [[nodiscard]] std::string name() const override { return "tpc.cross_entropy_grad"; }
  [[nodiscard]] IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  tensor::Tensor logits_, targets_, dlogits_;
  std::int64_t rows_, vocab_;
  float scale_;
};

}  // namespace gaudi::tpc
