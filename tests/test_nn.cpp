// Model-library tests: layers, the three attention mechanisms, transformer
// layers and the end-to-end language models — functional correctness against
// closed-form references at miniature scale.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "graph/runtime.hpp"
#include "nn/models.hpp"
#include "nn/train.hpp"
#include "tensor/ops.hpp"
#include "workload/corpus.hpp"

namespace gaudi::nn {
namespace {

namespace ops = gaudi::tensor::ops;
using graph::Graph;
using graph::RunOptions;
using graph::Runtime;
using graph::ValueId;
using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

graph::ProfileResult run_functional(
    const Graph& g, const std::unordered_map<ValueId, Tensor>& feeds) {
  Runtime rt;
  RunOptions opts;
  opts.mode = tpc::ExecMode::kFunctional;
  return rt.run(g, feeds, opts);
}

TEST(ParamStore, CreatesAndInitializes) {
  Graph g;
  ParamStore store(7);
  const ValueId w = store.create(g, Shape{{4, 4}}, "w", Init::kNormal, 0.1f);
  const ValueId ones = store.create(g, Shape{{4}}, "ones", Init::kOnes);
  const ValueId z = store.create(g, Shape{{4}}, "z", Init::kZeros);
  const ValueId buf = store.create(g, Shape{{2}}, "buf", Init::kUniform, 0.5f);
  store.mark_buffer(buf);

  EXPECT_EQ(store.count(), 4u);
  EXPECT_EQ(store.trainable().size(), 3u);
  const auto feeds = store.init_feeds(g);
  EXPECT_EQ(feeds.size(), 4u);
  for (float v : feeds.at(ones).f32()) EXPECT_EQ(v, 1.0f);
  for (float v : feeds.at(z).f32()) EXPECT_EQ(v, 0.0f);
  double sq = 0.0;
  for (float v : feeds.at(w).f32()) sq += static_cast<double>(v) * v;
  EXPECT_LT(std::sqrt(sq / 16.0), 0.4);  // stddev ~0.1
  EXPECT_NE(feeds.at(w).f32()[0], feeds.at(w).f32()[1]);
}

TEST(ParamStore, DifferentSeedsDifferentInits) {
  Graph g1, g2;
  ParamStore s1(1), s2(2);
  const ValueId w1 = s1.create(g1, Shape{{8}}, "w", Init::kNormal);
  const ValueId w2 = s2.create(g2, Shape{{8}}, "w", Init::kNormal);
  EXPECT_GT(ops::max_abs_diff(s1.init_feeds(g1).at(w1), s2.init_feeds(g2).at(w2)),
            0.0);
}

TEST(Linear, ComputesAffineMap) {
  Graph g;
  ParamStore params(3);
  Linear lin(g, params, 6, 4, "lin");
  const ValueId x = g.input(Shape{{5, 6}}, DType::F32, "x");
  const ValueId y = lin(g, x);
  g.mark_output(y);

  auto feeds = params.init_feeds(g);
  const Tensor xv = Tensor::uniform(Shape{{5, 6}}, sim::CounterRng{11});
  feeds.emplace(x, xv);
  const auto result = run_functional(g, feeds);
  const Tensor expect = ops::add_rowvec(
      ops::matmul(xv, feeds.at(lin.weight())), feeds.at(lin.bias()));
  EXPECT_LT(ops::max_abs_diff(result.outputs.at(y), expect), 1e-5);
}

TEST(Activations, AllVariantsBuildAndMatchReference) {
  struct Case {
    Activation act;
    Tensor (*ref)(const Tensor&);
  };
  const Case cases[] = {
      {Activation::kRelu, +[](const Tensor& t) { return ops::relu(t); }},
      {Activation::kGelu, +[](const Tensor& t) { return ops::gelu(t); }},
      {Activation::kElu, +[](const Tensor& t) { return ops::elu(t, 1.0f); }},
      {Activation::kSigmoid, +[](const Tensor& t) { return ops::sigmoid(t); }},
      {Activation::kTanh, +[](const Tensor& t) { return ops::tanh(t); }},
  };
  for (const auto& c : cases) {
    Graph g;
    const ValueId x = g.input(Shape{{3, 16}}, DType::F32, "x");
    const ValueId y = apply_activation(g, c.act, x, "act");
    g.mark_output(y);
    const Tensor xv =
        Tensor::uniform(Shape{{3, 16}}, sim::CounterRng{13}, -2.0f, 2.0f);
    const auto result = run_functional(g, {{x, xv}});
    EXPECT_LT(ops::max_abs_diff(result.outputs.at(y), c.ref(xv)), 1e-5)
        << activation_name(c.act);
  }
}

// ---------------------------------------------------------------------------
// Attention mechanisms
// ---------------------------------------------------------------------------

struct AttentionFixture {
  static constexpr std::int64_t kB = 2, kH = 2, kN = 8, kD = 4;
  Graph g;
  ParamStore params{17};
  ValueId q, k, v;
  Tensor qv, kv, vv;

  AttentionFixture() {
    q = g.input(Shape{{kB, kH, kN, kD}}, DType::F32, "q");
    k = g.input(Shape{{kB, kH, kN, kD}}, DType::F32, "k");
    v = g.input(Shape{{kB, kH, kN, kD}}, DType::F32, "v");
    const sim::CounterRng rng(23);
    qv = Tensor::uniform(Shape{{kB, kH, kN, kD}}, rng.stream(1), -1.0f, 1.0f);
    kv = Tensor::uniform(Shape{{kB, kH, kN, kD}}, rng.stream(2), -1.0f, 1.0f);
    vv = Tensor::uniform(Shape{{kB, kH, kN, kD}}, rng.stream(3), -1.0f, 1.0f);
  }

  Tensor run(const AttentionConfig& cfg) {
    const ValueId out = build_attention(g, params, cfg, q, k, v, "attn");
    g.mark_output(out);
    auto feeds = params.init_feeds(g);
    feeds.emplace(q, qv);
    feeds.emplace(k, kv);
    feeds.emplace(v, vv);
    return run_functional(g, feeds).outputs.at(out);
  }
};

TEST(Attention, SoftmaxMatchesClosedForm) {
  AttentionFixture fx;
  AttentionConfig cfg;
  cfg.kind = AttentionKind::kSoftmax;
  const Tensor out = fx.run(cfg);

  const Tensor scores = ops::matmul(
      ops::mul_scalar(fx.qv, 1.0f / std::sqrt(4.0f)), ops::transpose_last2(fx.kv));
  const Tensor expect = ops::matmul(ops::softmax_lastdim(scores), fx.vv);
  EXPECT_LT(ops::max_abs_diff(out, expect), 1e-5);
}

TEST(Attention, SoftmaxRespectsAdditiveMask) {
  AttentionFixture fx;
  AttentionConfig cfg;
  cfg.kind = AttentionKind::kSoftmax;
  const ValueId mask = fx.g.input(
      Shape{{AttentionFixture::kN, AttentionFixture::kN}}, DType::F32, "mask");
  cfg.additive_mask = mask;
  const ValueId out =
      build_attention(fx.g, fx.params, cfg, fx.q, fx.k, fx.v, "attn");
  fx.g.mark_output(out);
  auto feeds = fx.params.init_feeds(fx.g);
  feeds.emplace(fx.q, fx.qv);
  feeds.emplace(fx.k, fx.kv);
  feeds.emplace(fx.v, fx.vv);
  feeds.emplace(mask, make_causal_mask(AttentionFixture::kN));
  const Tensor outv = run_functional(fx.g, feeds).outputs.at(out);

  // Row 0 can only attend to position 0 -> output row 0 == v row 0.
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t h = 0; h < 2; ++h) {
      const std::int64_t base = ((b * 2 + h) * 8 + 0) * 4;
      for (std::int64_t d = 0; d < 4; ++d) {
        EXPECT_NEAR(outv.f32()[static_cast<std::size_t>(base + d)],
                    fx.vv.f32()[static_cast<std::size_t>(base + d)], 1e-5f);
      }
    }
  }
}

TEST(Attention, LinearMatchesExplicitKernelForm) {
  // phi-attention equals the O(N^2) form:
  // out_i = sum_j phi(q_i)·phi(k_j) v_j / sum_j phi(q_i)·phi(k_j)
  AttentionFixture fx;
  AttentionConfig cfg;
  cfg.kind = AttentionKind::kLinear;
  cfg.feature_map = Activation::kElu;
  const Tensor out = fx.run(cfg);

  auto phi = [](const Tensor& t) { return ops::add_scalar(ops::elu(t, 1.0f), 1.0f); };
  const Tensor qp = phi(fx.qv);
  const Tensor kp = phi(fx.kv);
  const Tensor sims = ops::matmul(qp, ops::transpose_last2(kp));  // [B,H,N,N]
  const Tensor num = ops::matmul(sims, fx.vv);
  const Tensor den = ops::sum_lastdim(sims);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const float expect = num.f32()[idx] / den.f32()[static_cast<std::size_t>(i / 4)];
    EXPECT_NEAR(out.f32()[idx], expect, 1e-4f);
  }
}

TEST(Attention, PerformerApproximatesSoftmaxRanking) {
  // FAVOR is an unbiased softmax-kernel approximation; with enough features
  // the outputs correlate strongly with exact softmax attention.
  AttentionFixture fx;
  AttentionConfig exact_cfg;
  exact_cfg.kind = AttentionKind::kSoftmax;
  AttentionFixture fx2;
  AttentionConfig favor_cfg;
  favor_cfg.kind = AttentionKind::kPerformer;
  favor_cfg.performer_features = 512;

  const Tensor exact = fx.run(exact_cfg);
  const Tensor approx = fx2.run(favor_cfg);

  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::int64_t i = 0; i < exact.numel(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    dot += static_cast<double>(exact.f32()[idx]) * approx.f32()[idx];
    na += static_cast<double>(exact.f32()[idx]) * exact.f32()[idx];
    nb += static_cast<double>(approx.f32()[idx]) * approx.f32()[idx];
  }
  const double cosine = dot / std::sqrt(na * nb);
  EXPECT_GT(cosine, 0.8);
}

TEST(Attention, PerformerRowsAreConvexCombinations) {
  // q', k' are positive (exp features), so attention weights are positive
  // and rows of the output stay within the convex hull of V's coordinates.
  AttentionFixture fx;
  AttentionConfig cfg;
  cfg.kind = AttentionKind::kPerformer;
  cfg.performer_features = 64;
  const Tensor out = fx.run(cfg);
  float vmin = 1e9f, vmax = -1e9f;
  for (float x : fx.vv.f32()) {
    vmin = std::min(vmin, x);
    vmax = std::max(vmax, x);
  }
  for (float x : out.f32()) {
    EXPECT_GE(x, vmin - 1e-4f);
    EXPECT_LE(x, vmax + 1e-4f);
  }
}

TEST(Attention, LinformerMatchesClosedForm) {
  // out = softmax(Q (E K)^T / sqrt(D)) (F V), with E = e_proj^T, F = f_proj^T.
  AttentionFixture fx;
  AttentionConfig cfg;
  cfg.kind = AttentionKind::kLinformer;
  cfg.linformer_k = 4;
  const ValueId out_id =
      build_attention(fx.g, fx.params, cfg, fx.q, fx.k, fx.v, "attn");
  fx.g.mark_output(out_id);
  auto feeds = fx.params.init_feeds(fx.g);
  feeds.emplace(fx.q, fx.qv);
  feeds.emplace(fx.k, fx.kv);
  feeds.emplace(fx.v, fx.vv);
  const Tensor out = run_functional(fx.g, feeds).outputs.at(out_id);

  // Locate the projection params by name.
  Tensor e_proj, f_proj;
  for (graph::ValueId p : fx.params.params()) {
    if (fx.g.value(p).name == "attn.E") e_proj = feeds.at(p);
    if (fx.g.value(p).name == "attn.F") f_proj = feeds.at(p);
  }
  ASSERT_TRUE(e_proj.defined());

  const Tensor ek = ops::transpose_last2(ops::matmul(
      ops::transpose_last2(fx.kv), e_proj));  // E K : [B,H,k,D]
  const Tensor fv =
      ops::transpose_last2(ops::matmul(ops::transpose_last2(fx.vv), f_proj));
  const Tensor scores = ops::matmul(ops::mul_scalar(fx.qv, 0.5f),  // 1/sqrt(4)
                                    ops::transpose_last2(ek));
  const Tensor expect = ops::matmul(ops::softmax_lastdim(scores), fv);
  EXPECT_LT(ops::max_abs_diff(out, expect), 1e-4);
}

TEST(Attention, LocalAttentionIsBlockDiagonal) {
  AttentionFixture fx;  // N = 8
  AttentionConfig cfg;
  cfg.kind = AttentionKind::kLocal;
  cfg.local_window = 4;
  const Tensor out = fx.run(cfg);

  // Reference: softmax attention computed separately per 4-wide block.
  constexpr std::int64_t kB = AttentionFixture::kB, kH = AttentionFixture::kH,
                         kN = AttentionFixture::kN, kD = AttentionFixture::kD;
  for (std::int64_t b = 0; b < kB; ++b) {
    for (std::int64_t h = 0; h < kH; ++h) {
      for (std::int64_t blk = 0; blk < kN / 4; ++blk) {
        const std::int64_t base = ((b * kH + h) * kN + blk * 4) * kD;
        auto slice = [&](const Tensor& t) {
          return Tensor::from_values(
              Shape{{4, kD}},
              std::span<const float>(t.f32().data() + base, 4 * kD));
        };
        const Tensor qs = slice(fx.qv);
        const Tensor ks = slice(fx.kv);
        const Tensor vs = slice(fx.vv);
        const Tensor scores = ops::matmul(ops::mul_scalar(qs, 0.5f),
                                          ops::transpose_last2(ks));
        const Tensor expect = ops::matmul(ops::softmax_lastdim(scores), vs);
        for (std::int64_t i = 0; i < 4 * kD; ++i) {
          EXPECT_NEAR(out.f32()[static_cast<std::size_t>(base + i)],
                      expect.f32()[static_cast<std::size_t>(i)], 1e-5f);
        }
      }
    }
  }
}

TEST(Attention, LocalAttentionRequiresDivisibleWindow) {
  AttentionFixture fx;
  AttentionConfig cfg;
  cfg.kind = AttentionKind::kLocal;
  cfg.local_window = 3;  // does not divide N = 8
  EXPECT_THROW((void)build_attention(fx.g, fx.params, cfg, fx.q, fx.k, fx.v, "attn"),
               sim::InvalidArgument);
}

TEST(MultiHeadAttention, PreservesShapeAndRunsAllKinds) {
  for (const auto kind : {AttentionKind::kSoftmax, AttentionKind::kLinear,
                          AttentionKind::kPerformer, AttentionKind::kLinformer,
                          AttentionKind::kLocal}) {
    Graph g;
    ParamStore params(29);
    AttentionConfig cfg;
    cfg.kind = kind;
    cfg.performer_features = 8;
    cfg.linformer_k = 3;
    cfg.local_window = 3;  // divides seq_len = 6
    MultiHeadAttention mha(g, params, 16, 2, 8, cfg, "mha");
    const ValueId x = g.input(Shape{{2 * 6, 16}}, DType::F32, "x");
    const ValueId y = mha(g, params, x, 2, 6);
    g.mark_output(y);
    EXPECT_TRUE(g.value(y).shape == (Shape{{12, 16}}));

    auto feeds = params.init_feeds(g);
    feeds.emplace(x, Tensor::uniform(Shape{{12, 16}}, sim::CounterRng{31}));
    const auto result = run_functional(g, feeds);
    for (float v : result.outputs.at(y).f32()) {
      EXPECT_FALSE(std::isnan(v)) << attention_kind_name(kind);
    }
  }
}

TEST(MultiHeadAttention, RejectsWrongInputShape) {
  Graph g;
  ParamStore params(1);
  MultiHeadAttention mha(g, params, 16, 2, 8, {}, "mha");
  const ValueId x = g.input(Shape{{13, 16}}, DType::F32, "x");
  EXPECT_THROW((void)mha(g, params, x, 2, 6), sim::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Transformer layer
// ---------------------------------------------------------------------------

TEST(TransformerLayer, AttentionOnlyAndWithFfn) {
  for (const std::int64_t ffn : {std::int64_t{0}, std::int64_t{32}}) {
    Graph g;
    ParamStore params(37);
    TransformerLayerConfig cfg;
    cfg.d_model = 16;
    cfg.heads = 2;
    cfg.head_dim = 8;
    cfg.ffn_dim = ffn;
    TransformerLayer layer(g, params, cfg, "layer");
    const ValueId x = g.input(Shape{{8, 16}}, DType::F32, "x");
    const ValueId y = layer(g, params, x, 2, 4);
    g.mark_output(y);
    EXPECT_TRUE(g.value(y).shape == (Shape{{8, 16}}));

    auto feeds = params.init_feeds(g);
    feeds.emplace(x, Tensor::uniform(Shape{{8, 16}}, sim::CounterRng{41}));
    const auto result = run_functional(g, feeds);
    // Post-LN output: every row is normalized.
    const Tensor& out = result.outputs.at(y);
    for (int r = 0; r < 8; ++r) {
      double mean = 0.0;
      for (int j = 0; j < 16; ++j) mean += out.f32()[r * 16 + j];
      EXPECT_NEAR(mean / 16.0, 0.0, 1e-3);
    }
  }
}

TEST(TransformerLayer, GluFfnDoublesInnerProjection) {
  Graph g;
  ParamStore params(43);
  TransformerLayerConfig cfg;
  cfg.d_model = 16;
  cfg.heads = 2;
  cfg.head_dim = 8;
  cfg.ffn_dim = 32;
  cfg.ffn_activation = Activation::kGlu;
  TransformerLayer layer(g, params, cfg, "layer");
  const ValueId x = g.input(Shape{{4, 16}}, DType::F32, "x");
  g.mark_output(layer(g, params, x, 1, 4));
  // ffn_in weight is [16, 64]: GLU halves 64 back to 32.
  bool found = false;
  for (ValueId p : params.params()) {
    if (g.value(p).name == "layer.ffn_in.weight") {
      EXPECT_TRUE(g.value(p).shape == (Shape{{16, 64}}));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// End-to-end language models
// ---------------------------------------------------------------------------

TEST(LanguageModel, TinyGptForwardAndLossNearUniform) {
  Graph g;
  const LmConfig cfg = LmConfig::tiny(LmArch::kGpt2);
  const LanguageModel model = build_language_model(g, cfg);

  auto feeds = model.params.init_feeds(g);
  const workload::SyntheticCorpus corpus({cfg.vocab, 1.1, 99});
  feeds.emplace(model.token_ids, corpus.batch(cfg.batch, cfg.seq_len));
  feeds.emplace(model.targets, corpus.next_token_targets(cfg.batch, cfg.seq_len));
  feeds.emplace(model.causal_mask, make_causal_mask(cfg.seq_len));

  const auto result = run_functional(g, feeds);
  const double loss = result.outputs.at(model.loss).at(0);
  // Near-random initialization: loss ~ ln(vocab).
  EXPECT_NEAR(loss, std::log(static_cast<double>(cfg.vocab)), 0.5);
  EXPECT_TRUE(result.outputs.at(model.logits).shape() ==
              (Shape{{cfg.tokens(), cfg.vocab}}));
}

TEST(LanguageModel, TinyBertForwardAndLoss) {
  Graph g;
  const LmConfig cfg = LmConfig::tiny(LmArch::kBert);
  const LanguageModel model = build_language_model(g, cfg);
  EXPECT_EQ(model.causal_mask, graph::kInvalidValue);  // BERT is bidirectional

  auto feeds = model.params.init_feeds(g);
  const workload::SyntheticCorpus corpus({cfg.vocab, 1.1, 77});
  feeds.emplace(model.token_ids, corpus.batch(cfg.batch, cfg.seq_len));
  feeds.emplace(model.targets, corpus.next_token_targets(cfg.batch, cfg.seq_len));
  const auto result = run_functional(g, feeds);
  EXPECT_NEAR(result.outputs.at(model.loss).at(0),
              std::log(static_cast<double>(cfg.vocab)), 0.5);
}

TEST(LanguageModel, TrainingStepProducesNonTrivialGradients) {
  Graph g;
  const LmConfig cfg = LmConfig::tiny(LmArch::kGpt2);
  const LanguageModel model = build_language_model(g, cfg);
  EXPECT_EQ(model.grad_values.size(), model.params.trainable().size());

  auto feeds = model.params.init_feeds(g);
  const workload::SyntheticCorpus corpus({cfg.vocab, 1.1, 55});
  feeds.emplace(model.token_ids, corpus.batch(cfg.batch, cfg.seq_len));
  feeds.emplace(model.targets, corpus.next_token_targets(cfg.batch, cfg.seq_len));
  feeds.emplace(model.causal_mask, make_causal_mask(cfg.seq_len));
  const auto result = run_functional(g, feeds);

  int nonzero_grads = 0;
  for (const ValueId gv : model.grad_values) {
    const Tensor& grad = result.outputs.at(gv);
    double norm = 0.0;
    for (float x : grad.f32()) {
      ASSERT_FALSE(std::isnan(x));
      norm += static_cast<double>(x) * x;
    }
    // Strictly nonzero; q/k projection gradients legitimately *vanish*
    // (to ~1e-17 norms) at small init because near-zero scores make softmax
    // near-uniform, but they never cancel exactly on a real batch.
    if (norm > 0.0) ++nonzero_grads;
  }
  EXPECT_EQ(nonzero_grads, static_cast<int>(model.grad_values.size()));
}

TEST(LanguageModel, GradientDescentReducesLoss) {
  Graph g;
  LmConfig cfg = LmConfig::tiny(LmArch::kGpt2);
  cfg.n_layers = 1;
  const LanguageModel model = build_language_model(g, cfg);

  auto feeds = model.params.init_feeds(g);
  const workload::SyntheticCorpus corpus({cfg.vocab, 1.1, 33});
  feeds.emplace(model.token_ids, corpus.batch(cfg.batch, cfg.seq_len));
  feeds.emplace(model.targets, corpus.next_token_targets(cfg.batch, cfg.seq_len));
  feeds.emplace(model.causal_mask, make_causal_mask(cfg.seq_len));

  Runtime rt;
  RunOptions opts;
  opts.mode = tpc::ExecMode::kFunctional;

  const auto step = [&]() {
    const auto result = rt.run(g, feeds, opts);
    const double loss = result.outputs.at(model.loss).at(0);
    const auto trainable = model.params.trainable();
    for (std::size_t i = 0; i < trainable.size(); ++i) {
      Tensor& p = feeds.at(trainable[i]);
      const Tensor& grad = result.outputs.at(model.grad_values[i]);
      for (std::int64_t j = 0; j < p.numel(); ++j) {
        const auto idx = static_cast<std::size_t>(j);
        p.f32()[idx] -= 0.5f * grad.f32()[idx];
      }
    }
    return loss;
  };

  const double l0 = step();
  double l = l0;
  for (int i = 0; i < 4; ++i) l = step();
  EXPECT_LT(l, l0 - 0.05);  // same batch: SGD must make progress
}

TEST(LanguageModel, TrainsWithEfficientAttentionMechanisms) {
  // The batch-reduced matmul gradients make every attention variant
  // trainable end-to-end; verify gradients flow and SGD makes progress.
  for (const auto kind : {AttentionKind::kLinear, AttentionKind::kLinformer,
                          AttentionKind::kLocal}) {
    Graph g;
    LmConfig cfg = LmConfig::tiny(LmArch::kBert);
    cfg.n_layers = 1;
    cfg.attention.kind = kind;
    cfg.attention.linformer_k = 8;
    cfg.attention.local_window = 8;
    const LanguageModel model = build_language_model(g, cfg);

    auto feeds = model.params.init_feeds(g);
    const workload::SyntheticCorpus corpus({cfg.vocab, 1.1, 61});
    feeds.emplace(model.token_ids, corpus.batch(cfg.batch, cfg.seq_len));
    feeds.emplace(model.targets,
                  corpus.next_token_targets(cfg.batch, cfg.seq_len));

    Runtime rt;
    RunOptions opts;
    opts.mode = tpc::ExecMode::kFunctional;
    const auto trainable = model.params.trainable();

    double first = 0.0, last = 0.0;
    for (int it = 0; it < 4; ++it) {
      const auto result = rt.run(g, feeds, opts);
      last = result.outputs.at(model.loss).at(0);
      ASSERT_FALSE(std::isnan(last)) << attention_kind_name(kind);
      if (it == 0) first = last;
      for (std::size_t i = 0; i < trainable.size(); ++i) {
        Tensor& p = feeds.at(trainable[i]);
        const Tensor& grad = result.outputs.at(model.grad_values[i]);
        for (std::int64_t j = 0; j < p.numel(); ++j) {
          p.f32()[static_cast<std::size_t>(j)] -=
              0.4f * grad.f32()[static_cast<std::size_t>(j)];
        }
      }
    }
    EXPECT_LT(last, first - 0.02) << attention_kind_name(kind);
  }
}

TEST(LanguageModel, PaperConfigsMatchSection34) {
  const LmConfig gpt = LmConfig::gpt2_paper();
  EXPECT_EQ(gpt.seq_len, 2048);
  EXPECT_EQ(gpt.batch, 8);
  EXPECT_EQ(gpt.n_layers, 2);
  EXPECT_EQ(gpt.heads, 8);
  EXPECT_EQ(gpt.head_dim, 64);
  EXPECT_EQ(gpt.d_model(), 512);
  const LmConfig bert = LmConfig::bert_paper();
  EXPECT_EQ(bert.vocab, 30522);
  EXPECT_EQ(bert.arch, LmArch::kBert);
}

TEST(LanguageModel, ParamCountScalesWithConfig) {
  Graph g1, g2;
  const LanguageModel small = build_language_model(g1, LmConfig::tiny(LmArch::kGpt2));
  LmConfig bigger = LmConfig::tiny(LmArch::kGpt2);
  bigger.n_layers = 4;
  const LanguageModel big = build_language_model(g2, bigger);
  EXPECT_GT(big.param_count(g2), small.param_count(g1));
}

TEST(TrainGolden, PerfbenchConfigLossBitsArePinned) {
  // perfbench's train-functional model and loop at seed 1: the one pin on
  // functional training numerics across commits.  Any change to the GEMM
  // order, a TPC kernel, the optimizer or the loss scaler that moves a
  // single bit of a loss shows here.
  TrainOptions opts;
  opts.model.vocab = 256;
  opts.model.batch = 2;
  opts.model.seq_len = 64;
  opts.model.heads = 4;
  opts.model.head_dim = 16;
  opts.model.ffn_dim = 128;
  opts.optimizer.kind = OptimizerKind::kAdam;
  opts.steps = 12;
  opts.loss_scaling = true;
  opts.bf16_grads = true;
  opts.seed = 1;
  constexpr std::array<std::uint32_t, 12> kLossBits = {
      0x40b1718d, 0x40ad4f52, 0x40a7e4ef, 0x40a1df30, 0x409bc1f0, 0x4095da51,
      0x40901f58, 0x408a92a8, 0x40854f4e, 0x4080573e, 0x407722bc, 0x406dd3f5};
  const TrainResult r = train_language_model(opts);
  ASSERT_EQ(r.steps.size(), kLossBits.size());
  for (std::size_t i = 0; i < kLossBits.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(r.steps[i].loss), kLossBits[i])
        << "step " << i << ": loss " << r.steps[i].loss << " = 0x" << std::hex
        << std::bit_cast<std::uint32_t>(r.steps[i].loss);
  }
}

}  // namespace
}  // namespace gaudi::nn
