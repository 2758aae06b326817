// Autodiff tests: every gradient rule checked against central differences
// through full functional runs of the graph runtime.
#include <gtest/gtest.h>

#include <functional>

#include "graph/autodiff.hpp"
#include "graph/runtime.hpp"
#include "tensor/ops.hpp"

namespace gaudi::graph {
namespace {

namespace ops = gaudi::tensor::ops;
using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

struct GradCheck {
  Graph g;
  std::unordered_map<ValueId, Tensor> feeds;
  ValueId loss = kInvalidValue;
  std::vector<ValueId> wrt;

  /// Runs forward and returns the scalar loss.
  double loss_value() {
    Runtime rt;
    RunOptions opts;
    opts.mode = tpc::ExecMode::kFunctional;
    g.mark_output(loss);
    const auto result = rt.run(g, feeds, opts);
    return result.outputs.at(loss).at(0);
  }

  /// Builds the backward graph and checks every wrt gradient by central
  /// differences on a sample of coordinates.
  void check(double tol = 2e-2, int max_coords = 6) {
    const BackwardResult back = build_backward(g, loss, wrt);
    g.mark_output(loss);
    for (const ValueId w : wrt) g.mark_output(back.grads.at(w));

    Runtime rt;
    RunOptions opts;
    opts.mode = tpc::ExecMode::kFunctional;
    const auto result = rt.run(g, feeds, opts);

    for (const ValueId w : wrt) {
      const Tensor grad = result.outputs.at(back.grads.at(w));
      Tensor& param = feeds.at(w);
      const std::int64_t n = param.numel();
      const std::int64_t step = std::max<std::int64_t>(1, n / max_coords);
      for (std::int64_t i = 0; i < n; i += step) {
        const auto idx = static_cast<std::size_t>(i);
        const float orig = param.f32()[idx];
        const float h = 1e-2f;
        param.f32()[idx] = orig + h;
        const double lp = loss_value();
        param.f32()[idx] = orig - h;
        const double lm = loss_value();
        param.f32()[idx] = orig;
        const double fd = (lp - lm) / (2.0 * h);
        EXPECT_NEAR(grad.f32()[idx], fd, tol * std::max(1.0, std::abs(fd)))
            << "value " << g.value(w).name << " coord " << i;
      }
    }
  }
};

Tensor rnd(Shape shape, std::uint64_t stream, float lo = -1.0f, float hi = 1.0f) {
  return Tensor::uniform(std::move(shape), sim::CounterRng{0xDD}.stream(stream), lo,
                         hi);
}

/// loss = mean over all elements (flattened to one row).
ValueId mean_all(Graph& g, ValueId x) {
  const std::int64_t n = g.value(x).shape.numel();
  return g.reduce_mean(g.reshape(x, Shape{{1, n}}), "mean_all");
}

TEST(Autodiff, MatmulBothOperands) {
  GradCheck gc;
  const ValueId a = gc.g.param(Shape{{3, 4}}, "a");
  const ValueId b = gc.g.param(Shape{{4, 5}}, "b");
  gc.loss = mean_all(gc.g, gc.g.matmul(a, b));
  gc.feeds = {{a, rnd(Shape{{3, 4}}, 1)}, {b, rnd(Shape{{4, 5}}, 2)}};
  gc.wrt = {a, b};
  gc.check();
}

TEST(Autodiff, MatmulWithTransposes) {
  GradCheck gc;
  const ValueId a = gc.g.param(Shape{{4, 3}}, "a");  // used transposed
  const ValueId b = gc.g.param(Shape{{5, 4}}, "b");  // used transposed
  gc.loss = mean_all(gc.g, gc.g.matmul(a, b, true, true));
  gc.feeds = {{a, rnd(Shape{{4, 3}}, 3)}, {b, rnd(Shape{{5, 4}}, 4)}};
  gc.wrt = {a, b};
  gc.check();
}

TEST(Autodiff, MatmulFusedBias) {
  GradCheck gc;
  const ValueId a = gc.g.param(Shape{{3, 4}}, "a");
  const ValueId b = gc.g.param(Shape{{4, 5}}, "b");
  const ValueId bias = gc.g.param(Shape{{5}}, "bias");
  gc.loss = mean_all(gc.g, gc.g.unary(tpc::UnaryKind::kTanh,
                                      gc.g.matmul_bias(a, b, bias)));
  gc.feeds = {{a, rnd(Shape{{3, 4}}, 5)},
              {b, rnd(Shape{{4, 5}}, 6)},
              {bias, rnd(Shape{{5}}, 7)}};
  gc.wrt = {a, b, bias};
  gc.check();
}

TEST(Autodiff, BatchedMatmul) {
  GradCheck gc;
  const ValueId a = gc.g.param(Shape{{2, 3, 4}}, "a");
  const ValueId b = gc.g.param(Shape{{2, 4, 3}}, "b");
  gc.loss = mean_all(gc.g, gc.g.matmul(a, b));
  gc.feeds = {{a, rnd(Shape{{2, 3, 4}}, 8)}, {b, rnd(Shape{{2, 4, 3}}, 9)}};
  gc.wrt = {a, b};
  gc.check();
}

TEST(Autodiff, BatchedTimesSharedMatmulReducesOverBatch) {
  // dB of a shared (rank-2) right operand sums over the batch; checked by
  // central differences like everything else.
  GradCheck gc;
  const ValueId a = gc.g.param(Shape{{2, 3, 4}}, "a");
  const ValueId b = gc.g.param(Shape{{4, 5}}, "b");
  gc.loss = mean_all(gc.g, gc.g.unary(tpc::UnaryKind::kTanh, gc.g.matmul(a, b)));
  gc.feeds = {{a, rnd(Shape{{2, 3, 4}}, 101)}, {b, rnd(Shape{{4, 5}}, 102)}};
  gc.wrt = {a, b};
  gc.check();
}

TEST(Autodiff, BatchedTransposedTimesSharedMatmul) {
  // The Linformer pattern: matmul(K, E, trans_a=true) with batched K and a
  // shared projection E.
  GradCheck gc;
  const ValueId k = gc.g.param(Shape{{2, 2, 6, 3}}, "k");  // [B,H,N,D]
  const ValueId e = gc.g.param(Shape{{6, 4}}, "e");        // [N, k_lin]
  gc.loss = mean_all(gc.g, gc.g.unary(tpc::UnaryKind::kTanh,
                                      gc.g.matmul(k, e, true, false)));
  gc.feeds = {{k, rnd(Shape{{2, 2, 6, 3}}, 103)}, {e, rnd(Shape{{6, 4}}, 104)}};
  gc.wrt = {k, e};
  gc.check();
}

TEST(Autodiff, BatchedTimesSharedTransposedMatmul) {
  GradCheck gc;
  const ValueId a = gc.g.param(Shape{{3, 4, 5}}, "a");
  const ValueId b = gc.g.param(Shape{{6, 5}}, "b");  // used transposed
  gc.loss = mean_all(gc.g, gc.g.unary(tpc::UnaryKind::kTanh,
                                      gc.g.matmul(a, b, false, true)));
  gc.feeds = {{a, rnd(Shape{{3, 4, 5}}, 105)}, {b, rnd(Shape{{6, 5}}, 106)}};
  gc.wrt = {a, b};
  gc.check();
}

TEST(Autodiff, ElementwiseBinaryOps) {
  GradCheck gc;
  const ValueId a = gc.g.param(Shape{{8}}, "a");
  const ValueId b = gc.g.param(Shape{{8}}, "b");
  // mix of add/sub/mul/div: loss = mean(((a+b)*(a-b)) / (b+3))
  const ValueId num = gc.g.mul(gc.g.add(a, b), gc.g.sub(a, b));
  const ValueId den = gc.g.add_scalar(b, 3.0f);
  gc.loss = mean_all(gc.g, gc.g.div(num, den));
  gc.feeds = {{a, rnd(Shape{{8}}, 10)}, {b, rnd(Shape{{8}}, 11)}};
  gc.wrt = {a, b};
  gc.check();
}

TEST(Autodiff, ScalarOpsAndUnaryChain) {
  GradCheck gc;
  const ValueId x = gc.g.param(Shape{{10}}, "x");
  const ValueId h =
      gc.g.mul_scalar(gc.g.add_scalar(gc.g.unary(tpc::UnaryKind::kSigmoid, x), 0.5f),
                      2.0f);
  gc.loss = mean_all(gc.g, gc.g.unary(tpc::UnaryKind::kTanh, h));
  gc.feeds = {{x, rnd(Shape{{10}}, 12)}};
  gc.wrt = {x};
  gc.check();
}

TEST(Autodiff, GradAccumulationAcrossConsumers) {
  GradCheck gc;
  const ValueId x = gc.g.param(Shape{{6}}, "x");
  // x feeds three consumers; gradients must sum.
  const ValueId y =
      gc.g.add(gc.g.mul(x, x), gc.g.mul_scalar(x, 3.0f));
  gc.loss = mean_all(gc.g, gc.g.add(y, gc.g.unary(tpc::UnaryKind::kTanh, x)));
  gc.feeds = {{x, rnd(Shape{{6}}, 13)}};
  gc.wrt = {x};
  gc.check();
}

TEST(Autodiff, SoftmaxThroughMean) {
  GradCheck gc;
  const ValueId x = gc.g.param(Shape{{4, 9}}, "x");
  const ValueId w = gc.g.param(Shape{{9, 1}}, "w");
  // Weighted softmax output so the gradient is nontrivial.
  gc.loss = mean_all(gc.g, gc.g.matmul(gc.g.softmax(x), w));
  gc.feeds = {{x, rnd(Shape{{4, 9}}, 14, -2.0f, 2.0f)},
              {w, rnd(Shape{{9, 1}}, 15)}};
  gc.wrt = {x};
  gc.check();
}

TEST(Autodiff, LayerNormAllThreeGradients) {
  GradCheck gc;
  const ValueId x = gc.g.param(Shape{{5, 12}}, "x");
  const ValueId gamma = gc.g.param(Shape{{12}}, "gamma");
  const ValueId beta = gc.g.param(Shape{{12}}, "beta");
  const ValueId w = gc.g.param(Shape{{12, 1}}, "w");
  const ValueId y = gc.g.layernorm(x, gamma, beta)[0];
  gc.loss = mean_all(gc.g, gc.g.matmul(gc.g.unary(tpc::UnaryKind::kTanh, y), w));
  gc.feeds = {{x, rnd(Shape{{5, 12}}, 16)},
              {gamma, rnd(Shape{{12}}, 17, 0.5f, 1.5f)},
              {beta, rnd(Shape{{12}}, 18)},
              {w, rnd(Shape{{12, 1}}, 19)}};
  gc.wrt = {x, gamma, beta};
  gc.check(5e-2);
}

TEST(Autodiff, GluGradient) {
  GradCheck gc;
  const ValueId x = gc.g.param(Shape{{4, 10}}, "x");
  gc.loss = mean_all(gc.g, gc.g.glu(x, false));
  gc.feeds = {{x, rnd(Shape{{4, 10}}, 20)}};
  gc.wrt = {x};
  gc.check();
}

TEST(Autodiff, ReduceAndBroadcast) {
  GradCheck gc;
  const ValueId x = gc.g.param(Shape{{3, 7}}, "x");
  const ValueId s = gc.g.reduce_sum(x);                 // [3,1]
  const ValueId wide = gc.g.broadcast_last(s, 7);       // [3,7]
  gc.loss = mean_all(gc.g, gc.g.mul(wide, x));
  gc.feeds = {{x, rnd(Shape{{3, 7}}, 21)}};
  gc.wrt = {x};
  gc.check();
}

TEST(Autodiff, RowvecOps) {
  GradCheck gc;
  const ValueId x = gc.g.param(Shape{{4, 6}}, "x");
  const ValueId v = gc.g.param(Shape{{6}}, "v");
  const ValueId h = gc.g.add_rowvec(x, v);
  const ValueId m = gc.g.add_op(OpKind::kMulRowvec, {h, v}, {}, "mul_rowvec")[0];
  gc.loss = mean_all(gc.g, gc.g.unary(tpc::UnaryKind::kTanh, m));
  gc.feeds = {{x, rnd(Shape{{4, 6}}, 22)}, {v, rnd(Shape{{6}}, 23, 0.5f, 1.5f)}};
  gc.wrt = {x, v};
  gc.check();
}

TEST(Autodiff, TransposeAndReshape) {
  GradCheck gc;
  const ValueId x = gc.g.param(Shape{{3, 4}}, "x");
  const ValueId t = gc.g.transpose(x);                       // [4,3]
  const ValueId r = gc.g.reshape(t, Shape{{2, 6}});
  gc.loss = mean_all(gc.g, gc.g.mul(r, r));
  gc.feeds = {{x, rnd(Shape{{3, 4}}, 24)}};
  gc.wrt = {x};
  gc.check();
}

TEST(Autodiff, SwapAxes12) {
  GradCheck gc;
  const ValueId x = gc.g.param(Shape{{2, 3, 4, 5}}, "x");
  const ValueId s = gc.g.swap_axes12(x);
  gc.loss = mean_all(gc.g, gc.g.mul(s, s));
  gc.feeds = {{x, rnd(Shape{{2, 3, 4, 5}}, 25)}};
  gc.wrt = {x};
  gc.check();
}

TEST(Autodiff, AddMaskGradsPosEmbedding) {
  GradCheck gc;
  const ValueId x = gc.g.param(Shape{{2, 3, 4}}, "x");
  const ValueId pos = gc.g.param(Shape{{3, 4}}, "pos");
  const ValueId y = gc.g.add_op(OpKind::kAddMask2D, {x, pos}, {}, "pos_add")[0];
  gc.loss = mean_all(gc.g, gc.g.unary(tpc::UnaryKind::kTanh, y));
  gc.feeds = {{x, rnd(Shape{{2, 3, 4}}, 26)}, {pos, rnd(Shape{{3, 4}}, 27)}};
  gc.wrt = {x, pos};
  gc.check();
}

TEST(Autodiff, EmbeddingGradient) {
  GradCheck gc;
  const ValueId table = gc.g.param(Shape{{7, 4}}, "table");
  const ValueId ids = gc.g.input(Shape{{5}}, DType::I32, "ids");
  const ValueId emb = gc.g.embedding(table, ids);
  gc.loss = mean_all(gc.g, gc.g.mul(emb, emb));
  Tensor idv = Tensor::zeros(Shape{{5}}, DType::I32);
  for (int i = 0; i < 5; ++i) idv.i32()[i] = (i * 3) % 7;
  gc.feeds = {{table, rnd(Shape{{7, 4}}, 28)}, {ids, idv}};
  gc.wrt = {table};
  gc.check();
}

TEST(Autodiff, CrossEntropyTerminalLoss) {
  GradCheck gc;
  const ValueId w = gc.g.param(Shape{{6, 9}}, "w");
  const ValueId x = gc.g.input(Shape{{4, 6}}, DType::F32, "x");
  const ValueId targets = gc.g.input(Shape{{4}}, DType::I32, "targets");
  const ValueId logits = gc.g.matmul(x, w);
  gc.loss = gc.g.cross_entropy_mean(logits, targets);
  Tensor tv = Tensor::zeros(Shape{{4}}, DType::I32);
  for (int i = 0; i < 4; ++i) tv.i32()[i] = (2 * i) % 9;
  gc.feeds = {{w, rnd(Shape{{6, 9}}, 29)},
              {x, rnd(Shape{{4, 6}}, 30)},
              {targets, tv}};
  gc.wrt = {w};
  gc.check();
}

TEST(Autodiff, CrossEntropyAcceptsScalarUpstreamGradient) {
  // The loss-scaling path differentiates scale * ce (see nn/train.hpp), so
  // a scalar gradient flowing into cross_entropy_mean is legal and must
  // chain through — here the upstream factor is 2, and central differences
  // confirm the logits gradient doubles with it.
  GradCheck gc;
  const ValueId w = gc.g.param(Shape{{6, 9}}, "w");
  const ValueId x = gc.g.input(Shape{{4, 6}}, DType::F32, "x");
  const ValueId targets = gc.g.input(Shape{{4}}, DType::I32, "targets");
  const ValueId logits = gc.g.matmul(x, w);
  const ValueId ce = gc.g.cross_entropy_mean(logits, targets);
  gc.loss = gc.g.reduce_mean(
      gc.g.mul_scalar(gc.g.reshape(ce, Shape{{1, 1}}), 2.0f));
  Tensor tv = Tensor::zeros(Shape{{4}}, DType::I32);
  for (int i = 0; i < 4; ++i) tv.i32()[i] = (2 * i) % 9;
  gc.feeds = {{w, rnd(Shape{{6, 9}}, 29)},
              {x, rnd(Shape{{4, 6}}, 30)},
              {targets, tv}};
  gc.wrt = {w};
  gc.check();
}

TEST(Autodiff, DropoutBackwardReusesMask) {
  // With p>0, dx must be gy masked exactly like the forward pass.
  Graph g;
  const ValueId x = g.param(Shape{{4096}}, "x");
  const ValueId y = g.dropout(x, 0.5f, /*seed=*/42);
  const ValueId loss = g.reduce_mean(g.reshape(y, Shape{{1, 4096}}));
  const ValueId wrt[] = {x};
  const auto back = build_backward(g, loss, wrt);
  g.mark_output(y);
  g.mark_output(back.grads.at(x));

  Runtime rt;
  RunOptions opts;
  opts.mode = tpc::ExecMode::kFunctional;
  const Tensor xv = rnd(Shape{{4096}}, 31, 0.5f, 1.5f);
  const auto result = rt.run(g, {{x, xv}}, opts);
  const Tensor yv = result.outputs.at(y);
  const Tensor dx = result.outputs.at(back.grads.at(x));
  for (std::int64_t i = 0; i < 4096; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (yv.f32()[idx] == 0.0f) {
      EXPECT_EQ(dx.f32()[idx], 0.0f);
    } else {
      EXPECT_NEAR(dx.f32()[idx], 2.0f / 4096.0f, 1e-6f);  // scale 2 = 1/(1-p)
    }
  }
}

TEST(Autodiff, UnusedPathsGetNoNodes) {
  Graph g;
  const ValueId x = g.param(Shape{{4}}, "x");
  const ValueId dead = g.unary(tpc::UnaryKind::kExp, x);  // not on loss path
  (void)dead;
  const ValueId loss = g.reduce_mean(g.reshape(g.mul(x, x), Shape{{1, 4}}));
  const std::size_t before = g.num_nodes();
  const ValueId wrt[] = {x};
  (void)build_backward(g, loss, wrt);
  // Backward of the dead exp would need an UnaryGrad node; ensure none.
  for (std::size_t n = before; n < g.num_nodes(); ++n) {
    EXPECT_EQ(g.node(static_cast<NodeId>(n)).kind == OpKind::kUnaryGrad, false);
  }
}

TEST(Autodiff, RequestedValueWithoutGradientThrows) {
  Graph g;
  const ValueId x = g.param(Shape{{4}}, "x");
  const ValueId unused = g.param(Shape{{4}}, "unused");
  (void)unused;
  const ValueId loss = g.reduce_mean(g.reshape(g.mul(x, x), Shape{{1, 4}}));
  const ValueId wrt[] = {unused};
  EXPECT_THROW(build_backward(g, loss, wrt), sim::InvalidArgument);
}

TEST(Autodiff, LossMustBeScalar) {
  Graph g;
  const ValueId x = g.param(Shape{{4}}, "x");
  const ValueId y = g.mul(x, x);
  const ValueId wrt[] = {x};
  EXPECT_THROW(build_backward(g, y, wrt), sim::InvalidArgument);
}

}  // namespace
}  // namespace gaudi::graph
