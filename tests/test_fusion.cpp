// Fusion-pass tests: chain discovery rules, fused-kernel numerics against
// the composed reference, and the runtime-level effects (time, memory,
// unchanged outputs).
#include <gtest/gtest.h>

#include "graph/autodiff.hpp"
#include "graph/fusion.hpp"
#include "graph/runtime.hpp"
#include "tensor/ops.hpp"
#include "tpc/cluster.hpp"

namespace gaudi::graph {
namespace {

namespace ops = gaudi::tensor::ops;
using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

ProfileResult run(const Graph& g, const std::unordered_map<ValueId, Tensor>& feeds,
                  bool fuse, tpc::ExecMode mode = tpc::ExecMode::kFunctional) {
  Runtime rt;
  CompileOptions copts;
  copts.fuse_elementwise = fuse;
  RunOptions opts;
  opts.mode = mode;
  return rt.run(rt.compile(g, copts), feeds, opts);
}

TEST(FusionPlan, FindsLinearChain) {
  Graph g;
  const ValueId x = g.input(Shape{{256}}, DType::F32, "x");
  const ValueId a = g.relu(x);
  const ValueId b = g.add_scalar(a, 1.0f);
  const ValueId c = g.mul_scalar(b, 2.0f);
  g.mark_output(c);

  const FusionPlan plan = plan_fusion(g);
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_EQ(plan.groups[0].nodes.size(), 3u);
  EXPECT_TRUE(plan.fused(0));
  EXPECT_TRUE(plan.is_group_tail(g, 2));
  EXPECT_FALSE(plan.is_group_tail(g, 0));
  // Intermediates a and b are internal; the tail output is not.
  EXPECT_TRUE(plan.internal_value[static_cast<std::size_t>(a)]);
  EXPECT_TRUE(plan.internal_value[static_cast<std::size_t>(b)]);
  EXPECT_FALSE(plan.internal_value[static_cast<std::size_t>(c)]);
}

TEST(FusionPlan, StopsAtMultiConsumerValues) {
  Graph g;
  const ValueId x = g.input(Shape{{64}}, DType::F32, "x");
  const ValueId a = g.relu(x);
  const ValueId b = g.add_scalar(a, 1.0f);
  // `a` has two consumers: the chain must not swallow it.
  g.mark_output(g.mul(a, b));

  const FusionPlan plan = plan_fusion(g);
  for (const auto& group : plan.groups) {
    for (const NodeId n : group.nodes) {
      EXPECT_NE(g.node(n).outputs[0], a);
    }
  }
}

TEST(FusionPlan, StopsAtGraphOutputs) {
  Graph g;
  const ValueId x = g.input(Shape{{64}}, DType::F32, "x");
  const ValueId a = g.relu(x);
  g.mark_output(a);  // must materialize even though singly consumed
  g.mark_output(g.add_scalar(a, 1.0f));
  const FusionPlan plan = plan_fusion(g);
  EXPECT_TRUE(plan.groups.empty());
}

TEST(FusionPlan, DoesNotCrossNonElementwiseOps) {
  Graph g;
  const ValueId x = g.input(Shape{{8, 8}}, DType::F32, "x");
  const ValueId w = g.param(Shape{{8, 8}}, "w");
  const ValueId a = g.relu(x);
  const ValueId m = g.matmul(a, w);
  g.mark_output(g.relu(m));
  const FusionPlan plan = plan_fusion(g);
  EXPECT_TRUE(plan.groups.empty());  // single ew ops on each side, no chain
}

TEST(FusionPlan, SingleOpsAreNotGroups) {
  Graph g;
  const ValueId x = g.input(Shape{{64}}, DType::F32, "x");
  g.mark_output(g.relu(x));
  EXPECT_TRUE(plan_fusion(g).groups.empty());
}

TEST(FusedKernel, MatchesComposedNumerics) {
  // relu -> +1 -> *3 -> sigmoid -> (chain) * y  (binary with external rhs)
  Graph g;
  const ValueId x = g.input(Shape{{777}}, DType::F32, "x");
  const ValueId y = g.input(Shape{{777}}, DType::F32, "y");
  ValueId h = g.relu(x);
  h = g.add_scalar(h, 1.0f);
  h = g.mul_scalar(h, 3.0f);
  h = g.sigmoid(h);
  h = g.mul(h, y);
  g.mark_output(h);

  const FusionPlan plan = plan_fusion(g);
  ASSERT_EQ(plan.groups.size(), 1u);
  ASSERT_EQ(plan.groups[0].nodes.size(), 5u);

  const sim::CounterRng rng(81);
  const Tensor xv = Tensor::uniform(Shape{{777}}, rng.stream(1), -2.0f, 2.0f);
  const Tensor yv = Tensor::uniform(Shape{{777}}, rng.stream(2), -2.0f, 2.0f);

  // Run the fused kernel directly, functionally.
  std::vector<Tensor> tensors(g.num_values());
  tensors[static_cast<std::size_t>(x)] = xv;
  tensors[static_cast<std::size_t>(y)] = yv;
  for (ValueId v = 0; v < static_cast<ValueId>(g.num_values()); ++v) {
    if (!tensors[static_cast<std::size_t>(v)].defined()) {
      tensors[static_cast<std::size_t>(v)] = Tensor::zeros(g.value(v).shape);
    }
  }
  const FusedChainKernel kernel(build_chain_spec(g, plan.groups[0]), tensors);
  const tpc::TpcCluster cluster(sim::ChipConfig::hls1().tpc);
  cluster.run(kernel, tpc::ExecMode::kFunctional);

  const Tensor expect = ops::mul(
      ops::sigmoid(ops::mul_scalar(ops::add_scalar(ops::relu(xv), 1.0f), 3.0f)), yv);
  EXPECT_LT(ops::max_abs_diff(tensors[static_cast<std::size_t>(h)], expect), 1e-5);
}

TEST(FusedKernel, HandlesChainAsRhsOperand) {
  // b - chain: the chain value is the *second* operand of the binary op.
  Graph g;
  const ValueId x = g.input(Shape{{100}}, DType::F32, "x");
  const ValueId b = g.input(Shape{{100}}, DType::F32, "b");
  const ValueId a = g.relu(x);
  const ValueId out = g.sub(b, a);
  g.mark_output(out);

  const sim::CounterRng rng(82);
  const Tensor xv = Tensor::uniform(Shape{{100}}, rng.stream(1), -1.0f, 1.0f);
  const Tensor bv = Tensor::uniform(Shape{{100}}, rng.stream(2), -1.0f, 1.0f);
  const auto fused = run(g, {{x, xv}, {b, bv}}, /*fuse=*/true);
  EXPECT_LT(ops::max_abs_diff(fused.outputs.at(out), ops::sub(bv, ops::relu(xv))),
            1e-6);
}

TEST(FusionRuntime, OutputsIdenticalWithAndWithoutFusion) {
  Graph g;
  const ValueId x = g.input(Shape{{16, 32}}, DType::F32, "x");
  const ValueId w = g.param(Shape{{32, 32}}, "w");
  ValueId h = g.matmul(x, w);
  h = g.gelu(h);
  h = g.mul_scalar(h, 0.5f);
  h = g.add_scalar(h, 0.1f);
  const ValueId y = g.softmax(h);
  g.mark_output(y);

  const sim::CounterRng rng(83);
  const std::unordered_map<ValueId, Tensor> feeds = {
      {x, Tensor::uniform(Shape{{16, 32}}, rng.stream(1), -1.0f, 1.0f)},
      {w, Tensor::normal(Shape{{32, 32}}, rng.stream(2), 0.2f)}};
  const auto plain = run(g, feeds, false);
  const auto fused = run(g, feeds, true);
  EXPECT_EQ(ops::max_abs_diff(plain.outputs.at(y), fused.outputs.at(y)), 0.0);
}

TEST(FusionRuntime, ReducesTimeAndMemory) {
  Graph g;
  const std::int64_t n = 1 << 20;
  const ValueId x = g.input(Shape{{n}}, DType::F32, "x");
  ValueId h = g.relu(x);
  for (int i = 0; i < 5; ++i) h = g.add_scalar(h, 1.0f);
  g.mark_output(h);

  const auto plain = run(g, {}, false, tpc::ExecMode::kTiming);
  const auto fused = run(g, {}, true, tpc::ExecMode::kTiming);
  // Six launches and ten global round-trips collapse into one kernel.
  EXPECT_LT(fused.makespan.seconds(), 0.5 * plain.makespan.seconds());
  EXPECT_LT(fused.hbm_peak_bytes, plain.hbm_peak_bytes);

  // The trace shows one fused event instead of six.
  int tpc_events = 0;
  bool fused_label = false;
  for (const auto& e : fused.trace.events()) {
    if (e.engine == Engine::kTpc) {
      ++tpc_events;
      fused_label |= e.name.find("fused[") == 0;
    }
  }
  EXPECT_EQ(tpc_events, 1);
  EXPECT_TRUE(fused_label);
}

TEST(FusionRuntime, TrainingGraphStillCorrectUnderFusion) {
  // An autodiff-built graph has fusable chains (grad scaling etc.); fusion
  // must not change gradients.
  Graph g;
  const ValueId x = g.param(Shape{{6, 6}}, "x");
  const ValueId h = g.gelu(g.mul_scalar(x, 2.0f));
  const ValueId loss = g.reduce_mean(g.reshape(g.mul(h, h), Shape{{1, 36}}));
  const ValueId wrt[] = {x};
  const auto back = build_backward(g, loss, wrt);
  g.mark_output(back.grads.at(x));

  const Tensor xv =
      Tensor::uniform(Shape{{6, 6}}, sim::CounterRng{84}, -1.0f, 1.0f);
  const auto plain = run(g, {{x, xv}}, false);
  const auto fused = run(g, {{x, xv}}, true);
  EXPECT_EQ(ops::max_abs_diff(plain.outputs.at(back.grads.at(x)),
                              fused.outputs.at(back.grads.at(x))),
            0.0);
}

TEST(FusionCompiled, ChainsArePreBoundAtCompileTime) {
  // Compiling with fusion on must capture every chain as a FusedChainSpec so
  // run() only binds tensors — no chain re-discovery or operand re-walking
  // per run.
  Graph g;
  const ValueId x = g.input(Shape{{512}}, DType::F32, "x");
  const ValueId y = g.input(Shape{{512}}, DType::F32, "y");
  ValueId h = g.relu(x);
  h = g.add_scalar(h, 1.0f);
  h = g.mul(h, y);
  const ValueId out = g.sigmoid(h);
  g.mark_output(out);

  Runtime rt;
  CompileOptions copts;
  copts.fuse_elementwise = true;
  const CompiledGraph cg = rt.compile(g, copts);
  ASSERT_EQ(cg.fusion.groups.size(), cg.chains.size());
  ASSERT_EQ(cg.chains.size(), 1u);
  const FusedChainSpec& spec = cg.chains[0];
  EXPECT_EQ(spec.chain_input, x);
  EXPECT_EQ(spec.output, out);
  EXPECT_EQ(spec.steps.size(), 4u);
  // The binary link's external operand was resolved at compile time.
  EXPECT_EQ(spec.steps[2].external, y);

  // And the compiled artifact is bit-identical to the unfused one.
  const sim::CounterRng rng(85);
  const std::unordered_map<ValueId, Tensor> feeds = {
      {x, Tensor::uniform(Shape{{512}}, rng.stream(1), -2.0f, 2.0f)},
      {y, Tensor::uniform(Shape{{512}}, rng.stream(2), -2.0f, 2.0f)}};
  RunOptions opts;
  const auto fused = rt.run(cg, feeds, opts);
  const auto plain = rt.run(rt.compile(g), feeds, opts);
  EXPECT_EQ(ops::max_abs_diff(plain.outputs.at(out), fused.outputs.at(out)),
            0.0);
}

}  // namespace
}  // namespace gaudi::graph
