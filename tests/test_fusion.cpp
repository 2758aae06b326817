// Fusion-pass tests: chain discovery rules, fused-kernel numerics against
// the composed reference, the runtime-level effects (time, memory,
// unchanged outputs), and golden values of guarded, fault-injected fused
// launches.
#include <gtest/gtest.h>

#include <bit>
#include <sstream>

#include "core/experiments.hpp"
#include "graph/autodiff.hpp"
#include "graph/fusion.hpp"
#include "graph/runtime.hpp"
#include "memory/checksum.hpp"
#include "sim/fault.hpp"
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
  EXPECT_EQ(plan.group_of[0], 0);
  EXPECT_TRUE(plan.is_group_tail(2));
  EXPECT_FALSE(plan.is_group_tail(0));
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

// ---------------------------------------------------------------------------
// Golden values of fused launches under the guard and fault injection
// ---------------------------------------------------------------------------

// An MME matmul, an unfused softmax whose output is the external operand of
// a four-link chain, a reshape, a final softmax, and a two-link chain that
// overflows to Inf on its own.
Graph fused_guard_graph(ValueId* x, ValueId* w, ValueId* external) {
  Graph g;
  *x = g.input(Shape{{16, 32}}, DType::F32, "x");
  *w = g.param(Shape{{32, 32}}, "w");
  const ValueId h = g.matmul(*x, *w, false, false, "mm");
  *external = g.softmax(h, "sm");
  ValueId c = g.mul_scalar(h, 0.5f, "scale");
  c = g.add(c, *external, "mix");
  c = g.relu(c);
  c = g.add_scalar(c, 1.0f, "shift");
  const ValueId r = g.reshape(c, Shape{{32, 16}}, "view");
  g.mark_output(g.softmax(r, "out_sm"));
  g.mark_output(g.exp(g.mul_scalar(*x, 200.0f, "amplify")));
  return g;
}

std::string describe(const NodeExec& e) {
  std::ostringstream os;
  os << engine_name(e.engine) << ' ' << e.duration.ps() << " ps, " << e.flops
     << " flops, " << e.bytes << " B, '" << e.label << "', guard "
     << e.guard_time.ps() << " ps, stats " << e.has_stats << ' '
     << e.stats.count << '/' << e.stats.nan_count << '/' << e.stats.inf_count
     << '/' << e.stats.denormal_count << '/' << e.stats.bf16_overflow_count
     << '/' << std::hex << std::bit_cast<std::uint32_t>(e.stats.max_abs);
  return os.str();
}

std::string describe(const SdcInjection& s) {
  std::ostringstream os;
  os << "node " << s.node << ", value " << s.value << ", element " << s.element
     << ", bit " << s.bit;
  return os.str();
}

// A functional run under kWarn with the chain's external operand corrupted
// after its producer retires and seeded bit flips on the buffers launches
// allocate: pins the guard's reports, the flips and every node's exec
// record, fused tails, absorbed links and the unguarded reshape view
// included.
TEST(FusedLaunchGolden, GuardedFaultInjectedFunctionalRun) {
  ValueId x = kInvalidValue;
  ValueId w = kInvalidValue;
  ValueId external = kInvalidValue;
  const Graph g = fused_guard_graph(&x, &w, &external);
  const sim::CounterRng rng(84);
  const std::unordered_map<ValueId, Tensor> feeds = {
      {x, Tensor::uniform(Shape{{16, 32}}, rng.stream(1), -1.0f, 1.0f)},
      {w, Tensor::normal(Shape{{32, 32}}, rng.stream(2), 0.2f)}};
  sim::FaultProfile profile;
  profile.sdc_bit_flip_rate = 0.5;
  const sim::FaultInjector faults{31, profile};
  Runtime rt;
  CompileOptions copts;
  copts.fuse_elementwise = true;
  RunOptions opts;
  opts.guard = sim::NumericsPolicy::kWarn;
  opts.faults = &faults;
  opts.corrupt_value = external;
  const ProfileResult r = rt.run(rt.compile(g, copts), feeds, opts);

  const std::vector<std::string> reports = {
      "silent data corruption: 'mm:0' (value 2) failed its checksum when read by 'sm' (node 1); produced by 'mm' (node 0) (bytes changed after the producer retired)",
      "silent data corruption: 'sm:1' (value 3) failed its checksum when read by 'shift' (node 5); produced by 'sm' (node 1) (bytes changed after the producer retired)",
      "silent data corruption: 'shift:5' (value 7) failed its checksum when read by 'view' (node 6); produced by 'shift' (node 5) (bytes changed after the producer retired)",
      "non-finite output at 'exp' (node 9): 'exp:9' (value 11) has nan=0 inf=139 denormal=20 bf16_overflow=0 max_abs=inf (512 elements)\n  contamination path (feed -> fault):\n    'exp:9' (value 11) <- 'exp' (node 9)\n",
      "silent data corruption: graph output 'exp:9' (value 11) failed its checksum at end of run; produced by 'exp' (node 9) (bytes changed after the producer retired)",
  };
  ASSERT_EQ(r.anomalies.size(), reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(r.anomalies[i].report, reports[i]) << "anomaly " << i;
  }

  const std::vector<std::string> injections = {
      "node 0, value 2, element 284, bit 22",
      "node 1, value 3, element 281, bit 30",
      "node 5, value 7, element 156, bit 23",
      "node 9, value 11, element 175, bit 25",
  };
  ASSERT_EQ(r.sdc_injections.size(), injections.size());
  for (std::size_t i = 0; i < injections.size(); ++i) {
    EXPECT_EQ(describe(r.sdc_injections[i]), injections[i]) << "flip " << i;
  }

  const std::vector<std::string> execs = {
      "MME 101703371 ps, 32768 flops, 8192 B, '', guard 60256 ps, stats 1 512/0/0/0/0/402813a1",
      "TPC 23298605 ps, 2560 flops, 4096 B, '', guard 60256 ps, stats 1 512/0/0/0/0/3e9dfbcc",
      "- 0 ps, 0 flops, 0 B, '', guard 0 ps, stats 0 0/0/0/0/0/0",
      "- 0 ps, 0 flops, 0 B, '', guard 0 ps, stats 0 0/0/0/0/0/0",
      "- 0 ps, 0 flops, 0 B, '', guard 0 ps, stats 0 0/0/0/0/0/0",
      "TPC 23285581 ps, 2048 flops, 4096 B, 'fused[mul_scalar+add+unary+add_scalar]', guard 60256 ps, stats 1 512/0/0/0/0/7c82353f",
      "- 0 ps, 0 flops, 0 B, '', guard 0 ps, stats 0 0/0/0/0/0/0",
      "TPC 23341395 ps, 2560 flops, 4096 B, '', guard 60256 ps, stats 1 512/0/0/0/0/3f800000",
      "- 0 ps, 0 flops, 0 B, '', guard 0 ps, stats 0 0/0/0/0/0/0",
      "TPC 23319070 ps, 1024 flops, 4096 B, 'fused[mul_scalar+unary]', guard 60256 ps, stats 1 512/0/139/20/0/7f800000",
  };
  ASSERT_EQ(r.node_execs.size(), execs.size());
  for (std::size_t i = 0; i < execs.size(); ++i) {
    EXPECT_EQ(describe(r.node_execs[i]), execs[i]) << "node " << i;
  }
}

// The Chrome trace of a fused, guarded, fault-injected timing run of the
// linear-attention layer at seq 512 (what `profile-layer --attention linear
// --seq 512 --fuse --guard warn --faults --fault-seed 7` runs, at the
// experiment's default batch).
TEST(FusedLaunchGolden, LinearAttentionChromeTrace) {
  core::LayerExperiment exp;
  exp.seq_len = 512;
  exp.attention.kind = nn::AttentionKind::kLinear;
  Graph g;
  core::build_layer_experiment(g, exp);
  const sim::FaultInjector faults{7, sim::FaultProfile::stress()};
  Runtime rt;
  CompileOptions copts;
  copts.fuse_elementwise = true;
  RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.guard = sim::NumericsPolicy::kWarn;
  opts.faults = &faults;
  const std::string json =
      rt.run(rt.compile(g, copts), {}, opts).trace.to_chrome_json();
  EXPECT_EQ(json.size(), 8585u);
  EXPECT_EQ(memory::fnv1a64(reinterpret_cast<const std::byte*>(json.data()),
                            json.size()),
            0x5278dc8e04291ae1ull);
}

}  // namespace
}  // namespace gaudi::graph
