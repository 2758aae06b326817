// Reference host math on tensors.
//
// These routines define the *semantics* the simulated engines must match:
// every TPC kernel and the MME functional path is tested against them.  They
// are also the workhorse for model-level gradient checks.  Performance only
// matters enough to keep tests fast (the GEMM is blocked and threaded).
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "sim/numerics.hpp"
#include "tensor/tensor.hpp"

namespace gaudi::tensor::ops {

// ---------------------------------------------------------------------------
// Matrix products
// ---------------------------------------------------------------------------

/// Batched matmul over the trailing two dims (f32).  Batch dims of `a` and
/// `b` must match, or `b` may be rank-2 (shared right operand, e.g.
/// weights).  Bit-exact by contract: each C[i][j] starts at +0 and adds
/// A[i][k] * B[k][j] for ascending k, skipping A[i][k] == 0, whatever the
/// thread count or vector width.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// Swap the trailing two dims (copying).
[[nodiscard]] Tensor transpose_last2(const Tensor& t);

// ---------------------------------------------------------------------------
// Element-wise
// ---------------------------------------------------------------------------

[[nodiscard]] Tensor unary(const Tensor& t, const std::function<float(float)>& f);

[[nodiscard]] Tensor exp(const Tensor& t);
[[nodiscard]] Tensor log(const Tensor& t);
[[nodiscard]] Tensor sqrt(const Tensor& t);
[[nodiscard]] Tensor square(const Tensor& t);
[[nodiscard]] Tensor relu(const Tensor& t);
[[nodiscard]] Tensor leaky_relu(const Tensor& t, float slope = 0.01f);
[[nodiscard]] Tensor elu(const Tensor& t, float alpha = 1.0f);
[[nodiscard]] Tensor gelu(const Tensor& t);  ///< tanh approximation, as deployed
[[nodiscard]] Tensor sigmoid(const Tensor& t);
[[nodiscard]] Tensor tanh(const Tensor& t);

[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor mul(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor div(const Tensor& a, const Tensor& b);

[[nodiscard]] Tensor add_scalar(const Tensor& t, float s);
[[nodiscard]] Tensor mul_scalar(const Tensor& t, float s);

/// rows of `t` ([..., D]) plus vector `v` ([D]).
[[nodiscard]] Tensor add_rowvec(const Tensor& t, const Tensor& v);
[[nodiscard]] Tensor mul_rowvec(const Tensor& t, const Tensor& v);

// ---------------------------------------------------------------------------
// Reductions & normalizations (over the last dim)
// ---------------------------------------------------------------------------

[[nodiscard]] Tensor sum_lastdim(const Tensor& t);   ///< [..., D] -> [..., 1]
[[nodiscard]] Tensor max_lastdim(const Tensor& t);   ///< [..., D] -> [..., 1]
[[nodiscard]] Tensor mean_lastdim(const Tensor& t);  ///< [..., D] -> [..., 1]
[[nodiscard]] double sum_all(const Tensor& t);

[[nodiscard]] Tensor softmax_lastdim(const Tensor& t);
[[nodiscard]] Tensor log_softmax_lastdim(const Tensor& t);
[[nodiscard]] Tensor layernorm_lastdim(const Tensor& t, const Tensor& gamma,
                                       const Tensor& beta, float eps = 1e-5f);

// ---------------------------------------------------------------------------
// NLP helpers
// ---------------------------------------------------------------------------

/// out[i, :] = table[ids[i], :] for flattened ids; result [..., D].
[[nodiscard]] Tensor embedding_gather(const Tensor& table, const Tensor& ids);

/// Mean cross-entropy of logits [N, V] against I32 targets [N]; also returns
/// dLoss/dlogits when `dlogits` is non-null.
[[nodiscard]] double cross_entropy(const Tensor& logits, const Tensor& targets,
                                   Tensor* dlogits = nullptr);

// ---------------------------------------------------------------------------
// Numerics sentinel
// ---------------------------------------------------------------------------

/// Single-pass classification of a tensor's elements (see sim/numerics.hpp).
/// Undefined (phantom) and integer tensors return empty stats — the sweep
/// exists for floating data.
[[nodiscard]] sim::NumericsStats numerics_sweep(const Tensor& t);

/// Fills a floating tensor with the signaling-NaN poison pattern (no-op for
/// integer dtypes): guarded runs pre-fill fresh output buffers so a kernel
/// reading its output before writing it trips the sweep instead of seeing
/// lucky zeros.
void poison_fill(Tensor& t);

// ---------------------------------------------------------------------------
// Comparison utilities
// ---------------------------------------------------------------------------

[[nodiscard]] double max_abs_diff(const Tensor& a, const Tensor& b);
[[nodiscard]] double max_rel_diff(const Tensor& a, const Tensor& b, double floor = 1e-6);
[[nodiscard]] bool allclose(const Tensor& a, const Tensor& b, double atol = 1e-5,
                            double rtol = 1e-5);

}  // namespace gaudi::tensor::ops
