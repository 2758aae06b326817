// Unit tests for the tensor substrate: shapes, storage, dtypes, and the
// reference math that defines the semantics the engines must match.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace gaudi::tensor {
namespace {

namespace ops = gaudi::tensor::ops;

TEST(Shape, BasicProperties) {
  const Shape s{{2, 3, 4}};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[1], 3);
  const auto strides = s.strides();
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
  EXPECT_EQ(s.batch_count(2), 2);
  EXPECT_EQ(s.batch_count(0), 24);
}

TEST(Shape, EnforcesTpcRankLimit) {
  EXPECT_NO_THROW((Shape{{1, 2, 3, 4, 5}}));
  EXPECT_THROW((Shape{{1, 2, 3, 4, 5, 6}}), sim::InvalidArgument);
  EXPECT_THROW(Shape{std::span<const std::int64_t>{}}, sim::InvalidArgument);
  EXPECT_THROW((Shape{{0}}), sim::InvalidArgument);
  EXPECT_THROW((Shape{{-3}}), sim::InvalidArgument);
}

TEST(Shape, EqualityAndReshape) {
  const Shape a{{2, 6}};
  EXPECT_TRUE(a == (Shape{{2, 6}}));
  EXPECT_FALSE(a == (Shape{{6, 2}}));
  EXPECT_EQ(a.reshaped({3, 4}).numel(), 12);
  EXPECT_THROW((void)a.reshaped({5}), sim::InvalidArgument);
  EXPECT_EQ(a.to_string(), "[2, 6]");
}

TEST(DType, SizesAndNames) {
  EXPECT_EQ(dtype_size(DType::F32), 4u);
  EXPECT_EQ(dtype_size(DType::BF16), 2u);
  EXPECT_EQ(dtype_size(DType::I32), 4u);
  EXPECT_EQ(dtype_size(DType::I16), 2u);
  EXPECT_EQ(dtype_size(DType::I8), 1u);
  EXPECT_EQ(dtype_name(DType::BF16), "bf16");
  EXPECT_TRUE(is_floating(DType::BF16));
  EXPECT_FALSE(is_floating(DType::I8));
}

TEST(DType, Bf16RoundTripExactForSmallIntegers) {
  for (float v : {0.0f, 1.0f, -2.0f, 0.5f, 256.0f, -0.25f}) {
    EXPECT_EQ(round_bf16(v), v) << v;
  }
}

TEST(DType, Bf16RoundsToNearestEven) {
  // bf16 has 8 mantissa bits: 1 + 2^-9 rounds down to 1, 1 + 3*2^-9 rounds
  // to 1 + 2^-7... verify the error bound: relative error <= 2^-8.
  const sim::CounterRng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(static_cast<std::uint64_t>(i), -100.0f, 100.0f);
    const float r = round_bf16(v);
    EXPECT_LE(std::abs(r - v), std::abs(v) * (1.0f / 256.0f) + 1e-30f);
  }
}

TEST(DType, Bf16HandlesNan) {
  const float nan = std::nanf("");
  EXPECT_TRUE(std::isnan(bf16_to_f32(f32_to_bf16(nan))));
}

TEST(Tensor, ZerosAndFull) {
  Tensor z = Tensor::zeros(Shape{{3, 3}});
  EXPECT_EQ(z.numel(), 9);
  for (float v : z.f32()) EXPECT_EQ(v, 0.0f);
  Tensor f = Tensor::full(Shape{{4}}, 2.5f);
  for (float v : f.f32()) EXPECT_EQ(v, 2.5f);
}

TEST(Tensor, SharedStorageAndClone) {
  Tensor a = Tensor::full(Shape{{4}}, 1.0f);
  Tensor b = a;  // shallow
  b.f32()[0] = 9.0f;
  EXPECT_EQ(a.f32()[0], 9.0f);
  EXPECT_TRUE(a.aliases(b));
  Tensor c = a.clone();
  c.f32()[0] = 5.0f;
  EXPECT_EQ(a.f32()[0], 9.0f);
  EXPECT_FALSE(a.aliases(c));
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor a = Tensor::full(Shape{{2, 6}}, 3.0f);
  Tensor b = a.reshape(Shape{{3, 4}});
  EXPECT_TRUE(a.aliases(b));
  EXPECT_THROW(a.reshape(Shape{{5}}), sim::InvalidArgument);
}

TEST(Tensor, PhantomHasShapeButNoStorage) {
  Tensor p = Tensor::phantom(Shape{{1024, 1024}});
  EXPECT_FALSE(p.defined());
  EXPECT_EQ(p.numel(), 1024 * 1024);
}

TEST(Tensor, DtypeConversion) {
  Tensor a = Tensor::from_values(Shape{{3}}, std::vector<float>{1.0f, 2.5f, -3.75f});
  Tensor b = a.to(DType::BF16);
  EXPECT_EQ(b.dtype(), DType::BF16);
  Tensor c = b.to(DType::F32);
  EXPECT_NEAR(c.f32()[1], 2.5f, 0.01f);
  EXPECT_THROW(a.to(DType::I32), sim::InvalidArgument);
}

TEST(Tensor, AtSetAcrossDtypes) {
  Tensor t = Tensor::zeros(Shape{{4}}, DType::I32);
  t.set(2, 7.0f);
  EXPECT_EQ(t.i32()[2], 7);
  EXPECT_EQ(t.at(2), 7.0f);
  EXPECT_THROW((void)t.at(4), sim::InvalidArgument);
}

TEST(Tensor, RandomTokensInVocab) {
  Tensor t = Tensor::random_tokens(Shape{{100}}, sim::CounterRng{5}, 31);
  for (std::int32_t id : t.i32()) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, 31);
  }
}

// ---------------------------------------------------------------------------
// Reference math
// ---------------------------------------------------------------------------

TEST(Ops, GemmMatchesNaive) {
  const sim::CounterRng rng(11);
  const Tensor a = Tensor::uniform(Shape{{7, 5}}, rng.stream(1), -1.0f, 1.0f);
  const Tensor b = Tensor::uniform(Shape{{5, 9}}, rng.stream(2), -1.0f, 1.0f);
  const Tensor c = ops::matmul(a, b);
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 9; ++j) {
      float acc = 0.0f;
      for (int k = 0; k < 5; ++k) acc += a.f32()[i * 5 + k] * b.f32()[k * 9 + j];
      EXPECT_NEAR(c.f32()[i * 9 + j], acc, 1e-4f);
    }
  }
}

TEST(Ops, MatmulBatchedAndShared) {
  const sim::CounterRng rng(13);
  const Tensor a = Tensor::uniform(Shape{{3, 4, 5}}, rng.stream(1), -1.0f, 1.0f);
  const Tensor b = Tensor::uniform(Shape{{3, 5, 2}}, rng.stream(2), -1.0f, 1.0f);
  const Tensor c = ops::matmul(a, b);
  EXPECT_TRUE(c.shape() == (Shape{{3, 4, 2}}));
  // Shared right operand (rank-2 B) applies to each batch.
  const Tensor w = Tensor::uniform(Shape{{5, 2}}, rng.stream(3), -1.0f, 1.0f);
  const Tensor d = ops::matmul(a, w);
  for (int batch = 0; batch < 3; ++batch) {
    const Tensor ab = Tensor::from_values(
        Shape{{4, 5}},
        std::span<const float>(a.f32().data() + batch * 20, 20));
    const Tensor expect = ops::matmul(ab, w);
    for (int i = 0; i < 8; ++i) {
      EXPECT_NEAR(d.f32()[batch * 8 + i], expect.f32()[i], 1e-4f);
    }
  }
}

TEST(Ops, MatmulValidatesShapes) {
  const Tensor a = Tensor::zeros(Shape{{2, 3}});
  const Tensor b = Tensor::zeros(Shape{{4, 5}});
  EXPECT_THROW(ops::matmul(a, b), sim::InvalidArgument);
}

TEST(Ops, LargeGemmThreadedMatchesSmallPath) {
  // Exercise the threaded path (work >= 2^18) against a column slice of the
  // single-threaded path.
  const sim::CounterRng rng(17);
  const Tensor a = Tensor::uniform(Shape{{128, 64}}, rng.stream(1), -1.0f, 1.0f);
  const Tensor b = Tensor::uniform(Shape{{64, 128}}, rng.stream(2), -1.0f, 1.0f);
  const Tensor c = ops::matmul(a, b);
  float acc = 0.0f;
  for (int k = 0; k < 64; ++k) acc += a.f32()[37 * 64 + k] * b.f32()[k * 128 + 91];
  EXPECT_NEAR(c.f32()[37 * 128 + 91], acc, 1e-3f);
}

/// matmul's documented order as a plain triple loop: C[i][j] starts at +0
/// and adds A[i][k] * B[k][j] for ascending k, skipping A[i][k] == 0, one
/// rounded multiply then one rounded add.
std::vector<float> scalar_gemm(std::span<const float> a, std::span<const float> b,
                               std::int64_t m, std::int64_t k, std::int64_t n) {
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float aik = a[static_cast<std::size_t>(i * k + kk)];
        if (aik == 0.0f) continue;
        const float product = aik * b[static_cast<std::size_t>(kk * n + j)];
        acc += product;
      }
      c[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
  return c;
}

void expect_same_bits(std::span<const float> got, std::span<const float> want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) != std::bit_cast<std::uint32_t>(want[i])) {
      ADD_FAILURE() << what << ": element " << i << " is " << got[i] << " (0x"
                    << std::hex << std::bit_cast<std::uint32_t>(got[i])
                    << "), the scalar loop gives " << want[i] << " (0x"
                    << std::bit_cast<std::uint32_t>(want[i]) << ")";
      return;
    }
  }
}

/// A [batch, m, k] operand with an exact zero (of either sign) in every
/// fourth element of each row, shifted by one column per row.
Tensor gemm_lhs(std::int64_t batch, std::int64_t m, std::int64_t k,
                const sim::CounterRng& rng, std::uint64_t stream) {
  Tensor a = Tensor::uniform(Shape{{batch, m, k}}, rng.stream(stream), -1.0f, 1.0f);
  auto v = a.f32();
  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::size_t row = i / static_cast<std::size_t>(k);
    const std::size_t col = i % static_cast<std::size_t>(k);
    if ((row + col) % 4 == 0) v[i] = row % 2 == 0 ? 0.0f : -0.0f;
  }
  return a.reshape(batch == 1 ? Shape{{m, k}} : Shape{{batch, m, k}});
}

/// A [batch, k, n] operand with a NaN, +Inf or -Inf in every third column
/// of each matrix; `gemm_lhs`'s zeros sit above each special for one row of
/// A in four.  One special per column keeps Inf - Inf, and with it a second
/// NaN payload, out of every sum.
Tensor gemm_rhs(std::int64_t batch, std::int64_t k, std::int64_t n,
                const sim::CounterRng& rng, std::uint64_t stream) {
  Tensor b = Tensor::uniform(Shape{{batch, k, n}}, rng.stream(stream), -1.0f, 1.0f);
  auto v = b.f32();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  for (std::int64_t bi = 0; bi < batch; ++bi) {
    for (std::int64_t j = 0; j < n; j += 3) {
      const std::int64_t row = (5 * j + 1) % k;
      v[static_cast<std::size_t>((bi * k + row) * n + j)] = specials[(j / 3) % 3];
    }
  }
  return b.reshape(batch == 1 ? Shape{{k, n}} : Shape{{batch, k, n}});
}

TEST(Ops, GemmIsBitExactAgainstAScalarLoop) {
  // Every output bit must equal the documented order's, whatever the
  // vector width, the thread count or the remainder of n mod 4: n = 1..3,
  // every residue mod 4, k across the 256-deep k-block, zeros of A above
  // NaN and +-Inf rows of B, and a shape large enough for the pooled path
  // (work >= 2^18).
  struct Dims {
    std::int64_t m, k, n;
  };
  const std::vector<Dims> shapes = {
      {1, 1, 1},  {3, 5, 2},    {2, 7, 3},    {5, 3, 4},   {4, 9, 5},
      {6, 17, 6}, {7, 11, 7},   {5, 260, 16}, {3, 300, 18}, {2, 513, 9},
      {6, 31, 13}, {7, 40, 31}, {64, 64, 66}};
  const sim::CounterRng rng(0x6E44);
  std::uint64_t stream = 0;
  for (const Dims& d : shapes) {
    const std::string what = "matmul " + std::to_string(d.m) + "x" +
                             std::to_string(d.k) + "x" + std::to_string(d.n);
    const Tensor a = gemm_lhs(1, d.m, d.k, rng, ++stream);
    const Tensor b = gemm_rhs(1, d.k, d.n, rng, ++stream);
    expect_same_bits(ops::matmul(a, b).f32(),
                     scalar_gemm(a.f32(), b.f32(), d.m, d.k, d.n), what);
  }

  // Batched and shared-B matmul, small and pooled (batch x m x n x k over
  // 2^18 splits the batches across the pool).
  for (const Dims& d : {Dims{3, 5, 7}, Dims{32, 64, 40}}) {
    constexpr std::int64_t kBatch = 4;
    const std::string what = "matmul " + std::to_string(kBatch) + "x" +
                             std::to_string(d.m) + "x" + std::to_string(d.k) +
                             "x" + std::to_string(d.n);
    const Tensor a = gemm_lhs(kBatch, d.m, d.k, rng, ++stream);
    const Tensor b = gemm_rhs(kBatch, d.k, d.n, rng, ++stream);
    const Tensor shared = gemm_rhs(1, d.k, d.n, rng, ++stream);
    const Tensor batched = ops::matmul(a, b);
    const Tensor broadcast = ops::matmul(a, shared);
    const std::size_t a_size = static_cast<std::size_t>(d.m * d.k);
    const std::size_t b_size = static_cast<std::size_t>(d.k * d.n);
    const std::size_t c_size = static_cast<std::size_t>(d.m * d.n);
    for (std::size_t bi = 0; bi < kBatch; ++bi) {
      const auto ai = a.f32().subspan(bi * a_size, a_size);
      expect_same_bits(
          batched.f32().subspan(bi * c_size, c_size),
          scalar_gemm(ai, b.f32().subspan(bi * b_size, b_size), d.m, d.k, d.n),
          what + " batch " + std::to_string(bi));
      expect_same_bits(broadcast.f32().subspan(bi * c_size, c_size),
                       scalar_gemm(ai, shared.f32(), d.m, d.k, d.n),
                       what + " shared B, batch " + std::to_string(bi));
    }
  }
}

TEST(Ops, TransposeLast2) {
  const Tensor a =
      Tensor::from_values(Shape{{2, 3}}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor t = ops::transpose_last2(a);
  EXPECT_TRUE(t.shape() == (Shape{{3, 2}}));
  EXPECT_EQ(t.f32()[0], 1.0f);
  EXPECT_EQ(t.f32()[1], 4.0f);
  EXPECT_EQ(t.f32()[2], 2.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  const Tensor x =
      Tensor::uniform(Shape{{6, 33}}, sim::CounterRng{19}, -5.0f, 5.0f);
  const Tensor y = ops::softmax_lastdim(x);
  for (int r = 0; r < 6; ++r) {
    double sum = 0.0;
    for (int j = 0; j < 33; ++j) {
      const float p = y.f32()[r * 33 + j];
      EXPECT_GT(p, 0.0f);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxIsShiftInvariant) {
  const Tensor x = Tensor::uniform(Shape{{2, 8}}, sim::CounterRng{23}, -1.0f, 1.0f);
  const Tensor y1 = ops::softmax_lastdim(x);
  const Tensor y2 = ops::softmax_lastdim(ops::add_scalar(x, 100.0f));
  EXPECT_LT(ops::max_abs_diff(y1, y2), 1e-5);
}

TEST(Ops, SoftmaxHandlesLargeMagnitudes) {
  const Tensor x =
      Tensor::from_values(Shape{{1, 3}}, std::vector<float>{1000.0f, 999.0f, 0.0f});
  const Tensor y = ops::softmax_lastdim(x);
  EXPECT_FALSE(std::isnan(y.f32()[0]));
  EXPECT_GT(y.f32()[0], y.f32()[1]);
  EXPECT_NEAR(y.f32()[2], 0.0f, 1e-6f);
}

TEST(Ops, LogSoftmaxMatchesLogOfSoftmax) {
  const Tensor x = Tensor::uniform(Shape{{4, 16}}, sim::CounterRng{29}, -3.0f, 3.0f);
  const Tensor a = ops::log_softmax_lastdim(x);
  const Tensor b = ops::log(ops::softmax_lastdim(x));
  EXPECT_LT(ops::max_abs_diff(a, b), 1e-4);
}

TEST(Ops, LayernormNormalizesRows) {
  const Tensor x = Tensor::uniform(Shape{{5, 64}}, sim::CounterRng{31}, -4.0f, 4.0f);
  const Tensor gamma = Tensor::full(Shape{{64}}, 1.0f);
  const Tensor beta = Tensor::zeros(Shape{{64}});
  const Tensor y = ops::layernorm_lastdim(x, gamma, beta);
  for (int r = 0; r < 5; ++r) {
    double mean = 0.0, var = 0.0;
    for (int j = 0; j < 64; ++j) mean += y.f32()[r * 64 + j];
    mean /= 64.0;
    for (int j = 0; j < 64; ++j) {
      const double d = y.f32()[r * 64 + j] - mean;
      var += d * d;
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(Ops, LayernormAppliesGammaBeta) {
  const Tensor x = Tensor::uniform(Shape{{2, 8}}, sim::CounterRng{37}, -1.0f, 1.0f);
  const Tensor gamma = Tensor::full(Shape{{8}}, 2.0f);
  const Tensor beta = Tensor::full(Shape{{8}}, 3.0f);
  const Tensor base = ops::layernorm_lastdim(x, Tensor::full(Shape{{8}}, 1.0f),
                                             Tensor::zeros(Shape{{8}}));
  const Tensor y = ops::layernorm_lastdim(x, gamma, beta);
  const Tensor expect = ops::add_scalar(ops::mul_scalar(base, 2.0f), 3.0f);
  EXPECT_LT(ops::max_abs_diff(y, expect), 1e-4);
}

TEST(Ops, ReductionsMatchManual) {
  const Tensor x =
      Tensor::from_values(Shape{{2, 3}}, std::vector<float>{1, 2, 3, -1, 5, 0});
  EXPECT_EQ(ops::sum_lastdim(x).f32()[0], 6.0f);
  EXPECT_EQ(ops::sum_lastdim(x).f32()[1], 4.0f);
  EXPECT_EQ(ops::max_lastdim(x).f32()[1], 5.0f);
  EXPECT_EQ(ops::mean_lastdim(x).f32()[0], 2.0f);
  EXPECT_DOUBLE_EQ(ops::sum_all(x), 10.0);
}

TEST(Ops, ElementwiseFamilies) {
  const Tensor x = Tensor::from_values(Shape{{4}}, std::vector<float>{-2, -0.5, 0.5, 2});
  EXPECT_EQ(ops::relu(x).f32()[0], 0.0f);
  EXPECT_EQ(ops::relu(x).f32()[3], 2.0f);
  EXPECT_NEAR(ops::leaky_relu(x, 0.1f).f32()[0], -0.2f, 1e-6f);
  EXPECT_NEAR(ops::elu(x).f32()[0], std::exp(-2.0f) - 1.0f, 1e-6f);
  EXPECT_NEAR(ops::sigmoid(x).f32()[3], 1.0f / (1.0f + std::exp(-2.0f)), 1e-6f);
  EXPECT_NEAR(ops::gelu(x).f32()[3], 1.9546f, 1e-3f);
  EXPECT_NEAR(ops::square(x).f32()[0], 4.0f, 1e-6f);
}

TEST(Ops, BinaryAndRowvec) {
  const Tensor a = Tensor::from_values(Shape{{2, 2}}, std::vector<float>{1, 2, 3, 4});
  const Tensor b = Tensor::from_values(Shape{{2, 2}}, std::vector<float>{5, 6, 7, 8});
  EXPECT_EQ(ops::add(a, b).f32()[0], 6.0f);
  EXPECT_EQ(ops::sub(a, b).f32()[1], -4.0f);
  EXPECT_EQ(ops::mul(a, b).f32()[2], 21.0f);
  EXPECT_EQ(ops::div(b, a).f32()[3], 2.0f);
  const Tensor v = Tensor::from_values(Shape{{2}}, std::vector<float>{10, 20});
  EXPECT_EQ(ops::add_rowvec(a, v).f32()[1], 22.0f);
  EXPECT_EQ(ops::mul_rowvec(a, v).f32()[2], 30.0f);
}

TEST(Ops, EmbeddingGather) {
  const Tensor table =
      Tensor::from_values(Shape{{3, 2}}, std::vector<float>{0, 1, 10, 11, 20, 21});
  Tensor ids = Tensor::zeros(Shape{{2}}, DType::I32);
  ids.i32()[0] = 2;
  ids.i32()[1] = 0;
  const Tensor out = ops::embedding_gather(table, ids);
  EXPECT_TRUE(out.shape() == (Shape{{2, 2}}));
  EXPECT_EQ(out.f32()[0], 20.0f);
  EXPECT_EQ(out.f32()[3], 1.0f);
  ids.i32()[0] = 3;
  EXPECT_THROW(ops::embedding_gather(table, ids), sim::InvalidArgument);
}

TEST(Ops, CrossEntropyMatchesManualAndGradSumsToZero) {
  const Tensor logits =
      Tensor::uniform(Shape{{4, 7}}, sim::CounterRng{41}, -2.0f, 2.0f);
  Tensor targets = Tensor::zeros(Shape{{4}}, DType::I32);
  for (int i = 0; i < 4; ++i) targets.i32()[i] = i % 7;
  Tensor dlogits;
  const double loss = ops::cross_entropy(logits, targets, &dlogits);

  const Tensor lsm = ops::log_softmax_lastdim(logits);
  double manual = 0.0;
  for (int i = 0; i < 4; ++i) manual -= lsm.f32()[i * 7 + targets.i32()[i]];
  EXPECT_NEAR(loss, manual / 4.0, 1e-5);
  // Each row of the gradient sums to zero (softmax minus one-hot).
  for (int i = 0; i < 4; ++i) {
    double sum = 0.0;
    for (int j = 0; j < 7; ++j) sum += dlogits.f32()[i * 7 + j];
    EXPECT_NEAR(sum, 0.0, 1e-5);
  }
}

TEST(Ops, ComparisonUtilities) {
  const Tensor a = Tensor::from_values(Shape{{2}}, std::vector<float>{1.0f, 2.0f});
  const Tensor b = Tensor::from_values(Shape{{2}}, std::vector<float>{1.0f, 2.001f});
  EXPECT_NEAR(ops::max_abs_diff(a, b), 0.001, 1e-6);
  EXPECT_TRUE(ops::allclose(a, b, 1e-2, 1e-2));
  EXPECT_FALSE(ops::allclose(a, b, 1e-6, 1e-6));
  EXPECT_GT(ops::max_rel_diff(a, b), 0.0);
}

}  // namespace
}  // namespace gaudi::tensor
