// Compile/execute split: pass-pipeline artifacts, static memory planning,
// and the run-many runtime.
//
// The property section fuzzes the memory planner the same way the schedule
// fuzzer attacks the scheduler: a few hundred seeded random DAGs, each
// compiled once (fusion on and off) and checked for the plan invariants —
// no two simultaneously-live buffers share bytes, the planned peak equals
// the dynamic allocator's observed peak, and one artifact run twice yields
// identical traces and outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graph/compiler.hpp"
#include "graph/random_graph.hpp"
#include "graph/runtime.hpp"
#include "graph/validate.hpp"
#include "memory/memory_planner.hpp"
#include "nn/decode.hpp"
#include "tensor/ops.hpp"

namespace gaudi::graph {
namespace {

namespace ops = gaudi::tensor::ops;
using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

sim::ChipConfig chip() { return sim::ChipConfig::hls1(); }

// ---------------------------------------------------------------------------
// Pass pipeline basics
// ---------------------------------------------------------------------------

TEST(Compiler, RunsAllPassesAndRecordsStats) {
  Graph g;
  const ValueId x = g.input(Shape{{64, 64}}, DType::F32, "x");
  const ValueId w = g.param(Shape{{64, 64}}, "w");
  ValueId h = g.matmul(x, w);
  h = g.gelu(h);
  h = g.mul_scalar(h, 0.5f);
  g.mark_output(g.softmax(h));

  CompileOptions copts;
  copts.fuse_elementwise = true;
  const CompiledGraph cg = Runtime(chip()).compile(g, copts);

  ASSERT_EQ(cg.stats.passes.size(), 5u);
  const char* expected[] = {"engine-mapping", "elementwise-fusion",
                            "dma-insertion", "liveness", "memory-planning"};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(cg.stats.passes[i].name, expected[i]);
  }
  EXPECT_EQ(cg.node_engine.size(), g.num_nodes());
  EXPECT_EQ(cg.fusion.groups.size(), 1u);
  EXPECT_GT(cg.stats.planned_buffers, 0u);
  EXPECT_GT(cg.stats.peak_bytes, 0u);
  EXPECT_GE(cg.stats.arena_bytes, cg.stats.peak_bytes);
  EXPECT_GE(cg.stats.total_bytes, cg.stats.arena_bytes);
  // The human-readable report mentions every pass.
  const std::string report = cg.stats.to_string();
  for (const char* name : expected) {
    EXPECT_NE(report.find(name), std::string::npos) << name;
  }
}

TEST(Compiler, ArtifactOutlivesGraphAndRuntime) {
  CompiledGraph cg;
  {
    Graph g;
    const ValueId x = g.input(Shape{{32}}, DType::F32, "x");
    g.mark_output(g.relu(x));
    cg = Runtime(chip()).compile(g);
  }  // graph and runtime are gone; the artifact owns everything it needs
  const Runtime rt(chip());
  const Tensor xv =
      Tensor::uniform(Shape{{32}}, sim::CounterRng{7}, -1.0f, 1.0f);
  const auto result = rt.run(cg, {{0, xv}});
  EXPECT_LT(ops::max_abs_diff(result.outputs.begin()->second, ops::relu(xv)),
            1e-6);
}

TEST(Compiler, StaticPlanReusesBuffers) {
  // A long straight chain of same-sized intermediates: with reuse the arena
  // stays O(1) buffers deep while the no-reuse total grows with the chain.
  Graph g;
  const std::int64_t n = 1 << 16;
  ValueId h = g.input(Shape{{n}}, DType::F32, "x");
  for (int i = 0; i < 8; ++i) h = g.unary(tpc::UnaryKind::kSqrt, h);
  g.mark_output(h);

  const CompiledGraph cg = Runtime(chip()).compile(g);
  EXPECT_GT(cg.stats.reuse_saved_bytes(), 0u);
  EXPECT_LT(cg.stats.arena_bytes, cg.stats.total_bytes);
  EXPECT_TRUE(validate_memory_plan(cg).empty());
}

TEST(Compiler, CapacityEnforcedAtCompileTime) {
  sim::ChipConfig small = chip();
  small.memory.hbm_bytes = 1 << 10;
  Graph g;
  const ValueId x = g.input(Shape{{1 << 16}}, DType::F32, "x");
  g.mark_output(g.relu(x));
  EXPECT_THROW((void)Runtime(small).compile(g), sim::ResourceExhausted);
}

// ---------------------------------------------------------------------------
// Memory-planner unit behavior
// ---------------------------------------------------------------------------

TEST(MemoryPlanner, DisjointLifetimesShareOffsets) {
  std::vector<memory::BufferInterval> ivs(3);
  ivs[0] = {memory::BufferInterval::kPreGraph,
            memory::BufferInterval::kNeverFreed, 64, "resident"};
  ivs[1] = {0, 1, 128, "a"};  // dies at step 1
  ivs[2] = {2, 3, 128, "b"};  // born at step 2: can take a's bytes
  const memory::MemoryPlan plan = memory::plan_memory(ivs);
  EXPECT_EQ(plan.buffers[1].offset, plan.buffers[2].offset);
  EXPECT_EQ(plan.peak_bytes, 64u + 128u);
  EXPECT_EQ(plan.arena_bytes, 64u + 128u);
  EXPECT_EQ(plan.total_bytes, 64u + 128u + 128u);
}

TEST(MemoryPlanner, OverlappingLifetimesDoNot) {
  std::vector<memory::BufferInterval> ivs(2);
  ivs[0] = {0, 2, 256, "a"};
  ivs[1] = {1, 3, 256, "b"};  // alive at step 2 together with a
  const memory::MemoryPlan plan = memory::plan_memory(ivs);
  const std::size_t lo = std::min(plan.buffers[0].offset, plan.buffers[1].offset);
  const std::size_t hi = std::max(plan.buffers[0].offset, plan.buffers[1].offset);
  EXPECT_GE(hi, lo + 256);
  EXPECT_EQ(plan.peak_bytes, 512u);
}

// ---------------------------------------------------------------------------
// Satellite regressions
// ---------------------------------------------------------------------------

TEST(CompiledRun, OutputWithNoConsumersKeepsStorage) {
  // An output value whose consumer count hits zero mid-run must keep both
  // its host storage and its device allocation: the caller reads it after
  // run() returns.  (The release path used to re-check `!info.is_output`
  // inside a branch already guarded by it — dead code that hid this
  // contract from view.)
  Graph g;
  const ValueId x = g.input(Shape{{64}}, DType::F32, "x");
  const ValueId mid = g.relu(x);   // marked output AND consumed
  const ValueId tail = g.sigmoid(mid);
  g.mark_output(mid);
  g.mark_output(tail);

  const Runtime rt(chip());
  const CompiledGraph cg = rt.compile(g);
  // The plan never frees an output's buffer.
  EXPECT_EQ(cg.placements[static_cast<std::size_t>(mid)].freed_at,
            memory::BufferInterval::kNeverFreed);

  const Tensor xv =
      Tensor::uniform(Shape{{64}}, sim::CounterRng{11}, -1.0f, 1.0f);
  RunOptions opts;
  opts.validate = true;  // peak cross-check would catch an early release
  const auto result = rt.run(cg, {{x, xv}}, opts);
  ASSERT_TRUE(result.outputs.at(mid).defined());
  EXPECT_LT(ops::max_abs_diff(result.outputs.at(mid), ops::relu(xv)), 1e-6);
}

TEST(CompiledRun, FusionBitIdenticalThroughCompiledPath) {
  Graph g;
  const ValueId x = g.input(Shape{{16, 32}}, DType::F32, "x");
  const ValueId w = g.param(Shape{{32, 32}}, "w");
  ValueId h = g.matmul(x, w);
  h = g.gelu(h);
  h = g.mul_scalar(h, 0.5f);
  h = g.add_scalar(h, 0.1f);
  const ValueId y = g.softmax(h);
  g.mark_output(y);

  const sim::CounterRng rng(21);
  const std::unordered_map<ValueId, Tensor> feeds = {
      {x, Tensor::uniform(Shape{{16, 32}}, rng.stream(1), -1.0f, 1.0f)},
      {w, Tensor::normal(Shape{{32, 32}}, rng.stream(2), 0.2f)}};

  const Runtime rt(chip());
  CompileOptions fused_opts;
  fused_opts.fuse_elementwise = true;
  RunOptions opts;
  opts.validate = true;
  const auto plain = rt.run(rt.compile(g), feeds, opts);
  const auto fused = rt.run(rt.compile(g, fused_opts), feeds, opts);
  EXPECT_EQ(ops::max_abs_diff(plain.outputs.at(y), fused.outputs.at(y)), 0.0);
}

TEST(CompiledRun, DecodeStepRunsValidatedInTimingMode) {
  const Runtime rt(chip());
  Graph g;
  (void)nn::build_gpt_decode_step(g, nn::DecodeConfig::tiny(), 8);
  const CompiledGraph cg = rt.compile(g);

  RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.validate = true;
  const auto result = rt.run(cg, {}, opts);
  EXPECT_GT(result.makespan, sim::SimTime::zero());
}

// ---------------------------------------------------------------------------
// Property fuzz: plan invariants over random DAGs
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSeeds = 200;

TEST(CompilerFuzz, MemoryPlanInvariantsHold) {
  const Runtime rt(chip());
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const RandomDag dag = random_dag(seed);
    for (const bool fuse : {false, true}) {
      CompileOptions copts;
      copts.fuse_elementwise = fuse;
      const CompiledGraph cg = rt.compile(dag.graph, copts);
      // No two simultaneously-live buffers overlap, every buffer fits the
      // arena, and every live range is well-formed.
      EXPECT_EQ(TraceValidator::format(validate_memory_plan(cg)), "")
          << "seed " << seed << " fuse " << fuse;
      EXPECT_GE(cg.stats.arena_bytes, cg.stats.peak_bytes)
          << "seed " << seed << " fuse " << fuse;
    }
  }
}

TEST(CompilerFuzz, PlannedPeakMatchesDynamicAllocator) {
  const Runtime rt(chip());
  RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.validate = true;  // run() cross-checks planned vs dynamic peak
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const RandomDag dag = random_dag(seed);
    for (const bool fuse : {false, true}) {
      CompileOptions copts;
      copts.fuse_elementwise = fuse;
      const CompiledGraph cg = rt.compile(dag.graph, copts);
      ASSERT_NO_THROW((void)rt.run(cg, {}, opts))
          << "seed " << seed << " fuse " << fuse;
    }
  }
}

TEST(CompilerFuzz, CompileOnceRunTwiceIsDeterministic) {
  const Runtime rt(chip());
  for (std::uint64_t seed = 0; seed < kSeeds; seed += 4) {
    const RandomDag dag = random_dag(seed);
    const auto feeds = random_feeds(dag.graph, seed);
    const CompiledGraph cg = rt.compile(dag.graph);

    RunOptions opts;  // functional, so outputs carry real numerics
    const auto r1 = rt.run(cg, feeds, opts);
    const auto r2 = rt.run(cg, feeds, opts);
    EXPECT_EQ(r1.trace.to_chrome_json(), r2.trace.to_chrome_json())
        << "seed " << seed;
    EXPECT_EQ(r1.hbm_peak_bytes, r2.hbm_peak_bytes) << "seed " << seed;
    ASSERT_EQ(r1.outputs.size(), r2.outputs.size()) << "seed " << seed;
    for (const auto& [v, t1] : r1.outputs) {
      EXPECT_EQ(ops::max_abs_diff(t1, r2.outputs.at(v)), 0.0)
          << "seed " << seed << " value " << v;
    }
  }
}

}  // namespace
}  // namespace gaudi::graph
