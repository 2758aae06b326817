#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "sim/thread_pool.hpp"

namespace gaudi::tensor::ops {

namespace {

void check_f32(const Tensor& t, const char* what) {
  GAUDI_CHECK(t.defined() && t.dtype() == DType::F32, std::string(what) + ": f32 tensor required");
}

/// Inner kernel: C[m,n] += A[m,k] @ B[k,n] over a row range, k-blocked so the
/// B panel stays cache-resident.  Order contract: each C[i][j] receives
/// A[i][k] * B[k][j] for ascending k, skipping every k with A[i][k] == 0,
/// as one rounded multiply then one rounded add.  C must not overlap A or B;
/// the inner loop runs over j, so the compiler may vectorize it without
/// touching any element's sequence of adds (src/tensor/CMakeLists.txt).
void gemm_rows(const float* __restrict a, const float* __restrict b,
               float* __restrict c, std::int64_t row_begin,
               std::int64_t row_end, std::int64_t k, std::int64_t n) {
  constexpr std::int64_t kBlock = 256;
  for (std::int64_t k0 = 0; k0 < k; k0 += kBlock) {
    const std::int64_t k1 = std::min(k, k0 + kBlock);
    for (std::int64_t i = row_begin; i < row_end; ++i) {
      float* __restrict ci = c + i * n;
      const float* __restrict ai = a + i * k;
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const float aik = ai[kk];
        if (aik == 0.0f) continue;
        const float* __restrict bk = b + kk * n;
        for (std::int64_t j = 0; j < n; ++j) {
          ci[j] += aik * bk[j];
        }
      }
    }
  }
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_f32(a, "matmul A");
  check_f32(b, "matmul B");
  GAUDI_CHECK(a.shape().rank() >= 2 && b.shape().rank() >= 2,
              "matmul expects rank >= 2");
  const std::int64_t m = a.shape()[a.shape().rank() - 2];
  const std::int64_t k = a.shape()[a.shape().rank() - 1];
  const std::int64_t kb = b.shape()[b.shape().rank() - 2];
  const std::int64_t n = b.shape()[b.shape().rank() - 1];
  GAUDI_CHECK(k == kb, "matmul inner dims mismatch");

  const std::int64_t batch_a = a.shape().batch_count(2);
  const std::int64_t batch_b = b.shape().batch_count(2);
  GAUDI_CHECK(batch_a == batch_b || batch_b == 1,
              "matmul batch dims must match (or B be unbatched)");

  // Output shape: a's batch dims + [m, n].
  std::vector<std::int64_t> out_dims(a.shape().dims().begin(),
                                     a.shape().dims().end());
  out_dims[out_dims.size() - 2] = m;
  out_dims[out_dims.size() - 1] = n;
  Tensor out{Shape{std::span<const std::int64_t>(out_dims)}, DType::F32};

  const float* ap = a.f32().data();
  const float* bp = b.f32().data();
  float* op = out.f32().data();
  const std::int64_t a_stride = m * k;
  const std::int64_t b_stride = (batch_b == 1) ? 0 : kb * n;
  const std::int64_t o_stride = m * n;

  const std::int64_t work = batch_a * m * n * k;
  auto run_batch = [&](std::int64_t batch) {
    gemm_rows(ap + batch * a_stride, bp + batch * b_stride, op + batch * o_stride,
              0, m, k, n);
  };
  // Output starts zeroed (Tensor ctor), so gemm_rows can accumulate directly.
  // Large work splits one matrix's rows, or the batches, across the pool.
  if (work < (1 << 18)) {
    for (std::int64_t bidx = 0; bidx < batch_a; ++bidx) run_batch(bidx);
  } else if (batch_a == 1) {
    sim::ThreadPool::global().parallel_for_chunks(
        static_cast<std::size_t>(m), [&](std::size_t begin, std::size_t end) {
          gemm_rows(ap, bp, op, static_cast<std::int64_t>(begin),
                    static_cast<std::int64_t>(end), k, n);
        });
  } else {
    sim::ThreadPool::global().parallel_for(
        static_cast<std::size_t>(batch_a),
        [&](std::size_t bidx) { run_batch(static_cast<std::int64_t>(bidx)); });
  }
  return out;
}

Tensor transpose_last2(const Tensor& t) {
  check_f32(t, "transpose");
  GAUDI_CHECK(t.shape().rank() >= 2, "transpose expects rank >= 2");
  const std::int64_t m = t.shape()[t.shape().rank() - 2];
  const std::int64_t n = t.shape()[t.shape().rank() - 1];
  const std::int64_t batch = t.shape().batch_count(2);

  std::vector<std::int64_t> out_dims(t.shape().dims().begin(), t.shape().dims().end());
  std::swap(out_dims[out_dims.size() - 2], out_dims[out_dims.size() - 1]);
  Tensor out{Shape{std::span<const std::int64_t>(out_dims)}, DType::F32};

  const float* ip = t.f32().data();
  float* op = out.f32().data();
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* src = ip + b * m * n;
    float* dst = op + b * m * n;
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        dst[j * m + i] = src[i * n + j];
      }
    }
  }
  return out;
}

Tensor unary(const Tensor& t, const std::function<float(float)>& f) {
  check_f32(t, "unary");
  Tensor out{t.shape(), DType::F32};
  auto in = t.f32();
  auto o = out.f32();
  for (std::size_t i = 0; i < in.size(); ++i) o[i] = f(in[i]);
  return out;
}

Tensor exp(const Tensor& t) { return unary(t, [](float x) { return std::exp(x); }); }
Tensor log(const Tensor& t) { return unary(t, [](float x) { return std::log(x); }); }
Tensor sqrt(const Tensor& t) { return unary(t, [](float x) { return std::sqrt(x); }); }
Tensor square(const Tensor& t) { return unary(t, [](float x) { return x * x; }); }
Tensor relu(const Tensor& t) { return unary(t, [](float x) { return x > 0 ? x : 0.0f; }); }
Tensor leaky_relu(const Tensor& t, float slope) {
  return unary(t, [slope](float x) { return x > 0 ? x : slope * x; });
}
Tensor elu(const Tensor& t, float alpha) {
  return unary(t, [alpha](float x) { return x > 0 ? x : alpha * (std::exp(x) - 1.0f); });
}
Tensor gelu(const Tensor& t) {
  return unary(t, [](float x) {
    constexpr float c = 0.7978845608f;  // sqrt(2/pi)
    return 0.5f * x * (1.0f + std::tanh(c * (x + 0.044715f * x * x * x)));
  });
}
Tensor sigmoid(const Tensor& t) {
  return unary(t, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
Tensor tanh(const Tensor& t) { return unary(t, [](float x) { return std::tanh(x); }); }

namespace {
Tensor binary(const Tensor& a, const Tensor& b, const char* what, float (*f)(float, float)) {
  check_f32(a, what);
  check_f32(b, what);
  GAUDI_CHECK(a.shape() == b.shape(), std::string(what) + ": shapes must match");
  Tensor out{a.shape(), DType::F32};
  auto pa = a.f32();
  auto pb = b.f32();
  auto po = out.f32();
  for (std::size_t i = 0; i < pa.size(); ++i) po[i] = f(pa[i], pb[i]);
  return out;
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary(a, b, "add", [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary(a, b, "sub", [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary(a, b, "mul", [](float x, float y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary(a, b, "div", [](float x, float y) { return x / y; });
}

Tensor add_scalar(const Tensor& t, float s) {
  return unary(t, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& t, float s) {
  return unary(t, [s](float x) { return x * s; });
}

namespace {
Tensor rowvec_op(const Tensor& t, const Tensor& v, const char* what,
                 float (*f)(float, float)) {
  check_f32(t, what);
  check_f32(v, what);
  GAUDI_CHECK(v.shape().rank() == 1, std::string(what) + ": vector must be rank-1");
  const std::int64_t d = v.shape()[0];
  GAUDI_CHECK(t.shape()[t.shape().rank() - 1] == d,
              std::string(what) + ": trailing dim must match vector length");
  Tensor out{t.shape(), DType::F32};
  auto pt = t.f32();
  auto pv = v.f32();
  auto po = out.f32();
  const std::int64_t rows = t.numel() / d;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < d; ++j) {
      po[r * d + j] = f(pt[r * d + j], pv[j]);
    }
  }
  return out;
}
}  // namespace

Tensor add_rowvec(const Tensor& t, const Tensor& v) {
  return rowvec_op(t, v, "add_rowvec", [](float x, float y) { return x + y; });
}
Tensor mul_rowvec(const Tensor& t, const Tensor& v) {
  return rowvec_op(t, v, "mul_rowvec", [](float x, float y) { return x * y; });
}

namespace {
Tensor reduce_lastdim(const Tensor& t, const char* what, float init,
                      float (*f)(float, float), bool mean) {
  check_f32(t, what);
  const std::int64_t d = t.shape()[t.shape().rank() - 1];
  const std::int64_t rows = t.numel() / d;
  std::vector<std::int64_t> out_dims(t.shape().dims().begin(), t.shape().dims().end());
  out_dims.back() = 1;
  Tensor out{Shape{std::span<const std::int64_t>(out_dims)}, DType::F32};
  auto pt = t.f32();
  auto po = out.f32();
  for (std::int64_t r = 0; r < rows; ++r) {
    float acc = init;
    for (std::int64_t j = 0; j < d; ++j) acc = f(acc, pt[r * d + j]);
    po[r] = mean ? acc / static_cast<float>(d) : acc;
  }
  return out;
}
}  // namespace

Tensor sum_lastdim(const Tensor& t) {
  return reduce_lastdim(t, "sum_lastdim", 0.0f, [](float a, float b) { return a + b; },
                        false);
}
Tensor max_lastdim(const Tensor& t) {
  return reduce_lastdim(t, "max_lastdim", -std::numeric_limits<float>::infinity(),
                        [](float a, float b) { return a > b ? a : b; }, false);
}
Tensor mean_lastdim(const Tensor& t) {
  return reduce_lastdim(t, "mean_lastdim", 0.0f, [](float a, float b) { return a + b; },
                        true);
}

double sum_all(const Tensor& t) {
  check_f32(t, "sum_all");
  double acc = 0.0;
  for (float x : t.f32()) acc += static_cast<double>(x);
  return acc;
}

Tensor softmax_lastdim(const Tensor& t) {
  check_f32(t, "softmax");
  const std::int64_t d = t.shape()[t.shape().rank() - 1];
  const std::int64_t rows = t.numel() / d;
  Tensor out{t.shape(), DType::F32};
  auto pt = t.f32();
  auto po = out.f32();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = pt.data() + r * d;
    float* o = po.data() + r * d;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = 0; j < d; ++j) mx = std::max(mx, in[j]);
    float sum = 0.0f;
    for (std::int64_t j = 0; j < d; ++j) {
      o[j] = std::exp(in[j] - mx);
      sum += o[j];
    }
    const float inv = 1.0f / sum;
    for (std::int64_t j = 0; j < d; ++j) o[j] *= inv;
  }
  return out;
}

Tensor log_softmax_lastdim(const Tensor& t) {
  check_f32(t, "log_softmax");
  const std::int64_t d = t.shape()[t.shape().rank() - 1];
  const std::int64_t rows = t.numel() / d;
  Tensor out{t.shape(), DType::F32};
  auto pt = t.f32();
  auto po = out.f32();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = pt.data() + r * d;
    float* o = po.data() + r * d;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = 0; j < d; ++j) mx = std::max(mx, in[j]);
    double sum = 0.0;
    for (std::int64_t j = 0; j < d; ++j) sum += std::exp(static_cast<double>(in[j] - mx));
    const float lse = mx + static_cast<float>(std::log(sum));
    for (std::int64_t j = 0; j < d; ++j) o[j] = in[j] - lse;
  }
  return out;
}

Tensor layernorm_lastdim(const Tensor& t, const Tensor& gamma, const Tensor& beta,
                         float eps) {
  check_f32(t, "layernorm");
  check_f32(gamma, "layernorm gamma");
  check_f32(beta, "layernorm beta");
  const std::int64_t d = t.shape()[t.shape().rank() - 1];
  GAUDI_CHECK(gamma.shape().rank() == 1 && gamma.shape()[0] == d,
              "layernorm gamma must be [D]");
  GAUDI_CHECK(beta.shape().rank() == 1 && beta.shape()[0] == d,
              "layernorm beta must be [D]");
  const std::int64_t rows = t.numel() / d;
  Tensor out{t.shape(), DType::F32};
  auto pt = t.f32();
  auto pg = gamma.f32();
  auto pb = beta.f32();
  auto po = out.f32();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = pt.data() + r * d;
    float* o = po.data() + r * d;
    double mean = 0.0;
    for (std::int64_t j = 0; j < d; ++j) mean += in[j];
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (std::int64_t j = 0; j < d; ++j) {
      const double diff = in[j] - mean;
      var += diff * diff;
    }
    var /= static_cast<double>(d);
    const float inv = static_cast<float>(1.0 / std::sqrt(var + eps));
    const float m = static_cast<float>(mean);
    for (std::int64_t j = 0; j < d; ++j) {
      o[j] = (in[j] - m) * inv * pg[j] + pb[j];
    }
  }
  return out;
}

Tensor embedding_gather(const Tensor& table, const Tensor& ids) {
  check_f32(table, "embedding table");
  GAUDI_CHECK(ids.dtype() == DType::I32, "embedding ids must be i32");
  GAUDI_CHECK(table.shape().rank() == 2, "embedding table must be [V, D]");
  const std::int64_t v = table.shape()[0];
  const std::int64_t d = table.shape()[1];

  std::vector<std::int64_t> out_dims(ids.shape().dims().begin(),
                                     ids.shape().dims().end());
  out_dims.push_back(d);
  Tensor out{Shape{std::span<const std::int64_t>(out_dims)}, DType::F32};
  auto pt = table.f32();
  auto pid = ids.i32();
  auto po = out.f32();
  for (std::size_t i = 0; i < pid.size(); ++i) {
    const std::int64_t id = pid[i];
    GAUDI_CHECK(id >= 0 && id < v, "embedding id out of vocabulary");
    std::copy_n(pt.data() + id * d, d, po.data() + static_cast<std::int64_t>(i) * d);
  }
  return out;
}

double cross_entropy(const Tensor& logits, const Tensor& targets, Tensor* dlogits) {
  check_f32(logits, "cross_entropy logits");
  GAUDI_CHECK(targets.dtype() == DType::I32, "cross_entropy targets must be i32");
  GAUDI_CHECK(logits.shape().rank() == 2, "cross_entropy expects [N, V] logits");
  const std::int64_t n = logits.shape()[0];
  const std::int64_t v = logits.shape()[1];
  GAUDI_CHECK(targets.numel() == n, "cross_entropy target count mismatch");

  const Tensor lsm = log_softmax_lastdim(logits);
  auto pl = lsm.f32();
  auto pt = targets.i32();
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t t = pt[i];
    GAUDI_CHECK(t >= 0 && t < v, "cross_entropy target out of range");
    loss -= pl[i * v + t];
  }
  loss /= static_cast<double>(n);

  if (dlogits != nullptr) {
    *dlogits = Tensor{logits.shape(), DType::F32};
    auto pd = dlogits->f32();
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < v; ++j) {
        const float p = std::exp(pl[i * v + j]);
        pd[i * v + j] = (p - (j == pt[i] ? 1.0f : 0.0f)) * inv_n;
      }
    }
  }
  return loss;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  GAUDI_CHECK(a.shape() == b.shape(), "max_abs_diff: shapes must match");
  double mx = 0.0;
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    mx = std::max(mx, std::abs(static_cast<double>(a.at(i)) - b.at(i)));
  }
  return mx;
}

double max_rel_diff(const Tensor& a, const Tensor& b, double floor) {
  GAUDI_CHECK(a.shape() == b.shape(), "max_rel_diff: shapes must match");
  double mx = 0.0;
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const double x = a.at(i);
    const double y = b.at(i);
    const double denom = std::max({std::abs(x), std::abs(y), floor});
    mx = std::max(mx, std::abs(x - y) / denom);
  }
  return mx;
}

sim::NumericsStats numerics_sweep(const Tensor& t) {
  if (!t.defined()) return {};
  switch (t.dtype()) {
    case DType::F32:
      return sim::sweep_f32(t.f32());
    case DType::BF16:
      return sim::sweep_bf16(t.bf16());
    default:
      return {};
  }
}

void poison_fill(Tensor& t) {
  if (!t.defined()) return;
  if (t.dtype() == DType::F32) {
    // Byte-wise copy: assigning a signaling NaN through a float lvalue may
    // quiet it on some FPUs, which would defeat the sentinel pattern.
    const std::uint32_t p = sim::kPoisonBitsF32;
    std::byte* bytes = t.raw();
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      std::memcpy(bytes + i * 4, &p, sizeof(p));
    }
  } else if (t.dtype() == DType::BF16) {
    for (std::uint16_t& b : t.bf16()) b = sim::kPoisonBitsBf16;
  }
}

bool allclose(const Tensor& a, const Tensor& b, double atol, double rtol) {
  if (!(a.shape() == b.shape())) return false;
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const double x = a.at(i);
    const double y = b.at(i);
    if (std::isnan(x) || std::isnan(y)) return false;
    if (std::abs(x - y) > atol + rtol * std::abs(y)) return false;
  }
  return true;
}

}  // namespace gaudi::tensor::ops
