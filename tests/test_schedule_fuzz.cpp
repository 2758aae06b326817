// Schedule/trace invariant fuzzing.
//
// Builds a few hundred seeded random DAGs over the real op inventory,
// schedules them under both policies, and checks every TraceValidator
// invariant plus functional cross-checks.  Deterministic regressions pin the
// two scheduler bugs the validator was built to catch: metadata nodes backed
// by several engines losing (or inventing) DMAs, and the JIT recompile stall
// not gating its triggering node under kOverlap.
#include <gtest/gtest.h>

#include <string>

#include "graph/random_graph.hpp"
#include "graph/runtime.hpp"
#include "graph/validate.hpp"
#include "tensor/ops.hpp"

namespace gaudi::graph {
namespace {

namespace ops = gaudi::tensor::ops;
using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

sim::ChipConfig chip() { return sim::ChipConfig::hls1(); }

ProfileResult run_timing(const Graph& g, SchedulePolicy policy) {
  Runtime rt(chip());
  RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.policy = policy;
  return rt.run(g, {}, opts);
}

std::string violations_for(const Graph& g, const std::vector<NodeExec>& execs,
                           const Trace& trace, SchedulePolicy policy) {
  return TraceValidator::format(
      TraceValidator::validate(g, execs, trace, policy, chip()));
}

// ---------------------------------------------------------------------------
// Deterministic regressions
// ---------------------------------------------------------------------------

// A metadata node fed by an MME producer and a TPC producer: its output is
// backed by buffers on both engines, so a TPC consumer still needs the
// MME-side bytes moved.  The scheduler used to track a single source engine
// per value, overwritten per input, so whether the DMA existed depended on
// input order: with the TPC producer last it was silently skipped, with the
// MME producer last the TPC-side bytes were "moved" spuriously.  Runtime
// fusion creates exactly this shape (non-tail chain links run as engine
// kNone), mimicked here by demoting the add's NodeExec.
void check_mixed_engine_metadata(bool mme_input_first) {
  Graph g;
  const ValueId x1 = g.input(Shape{{8, 8}}, DType::F32, "x1");
  const ValueId w = g.param(Shape{{8, 8}}, "w");
  const ValueId x2 = g.input(Shape{{8, 8}}, DType::F32, "x2");
  const ValueId m = g.matmul(x1, w, false, false, "m");   // MME producer
  const ValueId r = g.relu(x2);                           // TPC producer
  const ValueId a = mme_input_first ? g.add(m, r, "link") : g.add(r, m, "link");
  const ValueId y = g.gelu(a);                            // TPC consumer
  g.mark_output(y);

  std::vector<NodeExec> execs = run_timing(g, SchedulePolicy::kBarrier).node_execs;
  NodeId link = -1;
  for (NodeId nid = 0; nid < static_cast<NodeId>(g.num_nodes()); ++nid) {
    if (g.node(nid).label == "link") link = nid;
  }
  ASSERT_GE(link, 0);
  execs[static_cast<std::size_t>(link)].engine = Engine::kNone;
  execs[static_cast<std::size_t>(link)].duration = sim::SimTime::zero();
  execs[static_cast<std::size_t>(link)].flops = 0;

  for (const SchedulePolicy policy :
       {SchedulePolicy::kBarrier, SchedulePolicy::kOverlap}) {
    const Trace trace = schedule(g, execs, chip(), policy);
    // Exactly one DMA: the link's output to the TPC, regardless of which
    // input the metadata node listed last.
    int dmas = 0;
    for (const auto& e : trace.events()) {
      if (e.kind != TraceEventKind::kDma) continue;
      ++dmas;
      EXPECT_EQ(e.value, a);
      EXPECT_EQ(e.dma_dst, Engine::kTpc);
    }
    EXPECT_EQ(dmas, 1) << schedule_policy_name(policy);
    EXPECT_EQ(violations_for(g, execs, trace, policy), "");
  }
}

TEST(ScheduleRegression, MetadataNodeWithMmeProducerFirst) {
  check_mixed_engine_metadata(/*mme_input_first=*/true);
}

TEST(ScheduleRegression, MetadataNodeWithMmeProducerLast) {
  check_mixed_engine_metadata(/*mme_input_first=*/false);
}

TEST(ScheduleRegression, RecompileStallGatesTriggerUnderOverlap) {
  // Under kOverlap the GLU must still wait for the one-time compiler stall;
  // it used to be issued as if the stall were free.
  Graph g;
  const ValueId x = g.input(Shape{{16, 16}}, DType::F32, "x");
  const ValueId w = g.param(Shape{{16, 16}}, "w");
  const ValueId h = g.glu(g.matmul(x, w), /*requires_recompile=*/true, "glu");
  g.mark_output(h);

  const ProfileResult res = run_timing(g, SchedulePolicy::kOverlap);
  EXPECT_EQ(violations_for(g, res.node_execs, res.trace, SchedulePolicy::kOverlap),
            "");
  sim::SimTime stall_end{};
  for (const auto& e : res.trace.events()) {
    if (e.kind == TraceEventKind::kRecompile) stall_end = e.end;
  }
  EXPECT_GT(stall_end, sim::SimTime::zero());
  for (const auto& e : res.trace.events()) {
    if (e.kind == TraceEventKind::kCompute &&
        e.name.find("glu") != std::string::npos) {
      EXPECT_GE(e.start, stall_end);
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzzing
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSeeds = 320;

TEST(ScheduleFuzz, RandomDagsSatisfyAllInvariantsUnderBothPolicies) {
  int dma_events = 0;
  int recompile_events = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    RandomDagOptions opts;
    opts.allow_recompile = seed % 7 == 0;
    const RandomDag dag = random_dag(seed, opts);
    const ProfileResult res = run_timing(dag.graph, SchedulePolicy::kBarrier);

    ASSERT_EQ(violations_for(dag.graph, res.node_execs, res.trace,
                             SchedulePolicy::kBarrier),
              "")
        << "seed " << seed;
    const Trace overlap =
        schedule(dag.graph, res.node_execs, chip(), SchedulePolicy::kOverlap);
    ASSERT_EQ(violations_for(dag.graph, res.node_execs, overlap,
                             SchedulePolicy::kOverlap),
              "")
        << "seed " << seed;
    EXPECT_LE(overlap.makespan(), res.trace.makespan()) << "seed " << seed;

    for (const auto& e : res.trace.events()) {
      dma_events += e.kind == TraceEventKind::kDma;
      recompile_events += e.kind == TraceEventKind::kRecompile;
    }
  }
  // The fuzz corpus must actually exercise the cross-engine and stall paths.
  EXPECT_GT(dma_events, 0);
  EXPECT_GT(recompile_events, 0);
}

TEST(ScheduleFuzz, FusedLinkDemotionKeepsInvariants) {
  // Randomly demote TPC nodes to metadata links, the exec shape runtime
  // fusion produces.  The pre-fix scheduler loses DMAs on seeds where a
  // demoted node merges producers from both engines.
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const RandomDag dag = random_dag(seed);
    std::vector<NodeExec> execs =
        run_timing(dag.graph, SchedulePolicy::kBarrier).node_execs;

    const sim::CounterRng rng(seed, 0xF00D);
    for (NodeId nid = 0; nid < static_cast<NodeId>(dag.graph.num_nodes()); ++nid) {
      NodeExec& ex = execs[static_cast<std::size_t>(nid)];
      if (ex.engine == Engine::kTpc &&
          rng.below(static_cast<std::uint64_t>(nid), 4) == 0) {
        ex.engine = Engine::kNone;
        ex.duration = sim::SimTime::zero();
        ex.flops = 0;
      }
    }

    for (const SchedulePolicy policy :
         {SchedulePolicy::kBarrier, SchedulePolicy::kOverlap}) {
      const Trace trace = schedule(dag.graph, execs, chip(), policy);
      ASSERT_EQ(violations_for(dag.graph, execs, trace, policy), "")
          << "seed " << seed << " policy " << schedule_policy_name(policy);
    }
  }
}

TEST(ScheduleFuzz, FusionPreservesFunctionalOutputs) {
  // A fused chain's pre-bound kernel applies the exact same scalar ops in
  // the exact same order as the per-op path, so fusion on/off must be
  // bit-identical, not merely close.
  for (std::uint64_t seed = 0; seed < kSeeds; seed += 16) {
    const RandomDag dag = random_dag(seed);
    const auto feeds = random_feeds(dag.graph, seed);

    Runtime rt(chip());
    RunOptions opts;
    opts.mode = tpc::ExecMode::kFunctional;
    const ProfileResult plain = rt.run(dag.graph, feeds, opts);
    CompileOptions fuse;
    fuse.fuse_elementwise = true;
    const ProfileResult fused =
        rt.run(rt.compile(dag.graph, fuse), feeds, opts);

    ASSERT_EQ(plain.outputs.size(), fused.outputs.size()) << "seed " << seed;
    for (const auto& [v, t] : plain.outputs) {
      ASSERT_TRUE(fused.outputs.count(v)) << "seed " << seed;
      EXPECT_EQ(ops::max_abs_diff(t, fused.outputs.at(v)), 0.0)
          << "seed " << seed << " value '" << dag.graph.value(v).name << "'";
    }
  }
}

TEST(ScheduleFuzz, FaultInjectedTracesSatisfyAllInvariants) {
  // Random fault schedules over random DAGs: injected TPC stalls and DMA
  // retry chains must still satisfy every validator invariant under both
  // policies, and the trace must be a pure function of the injector seed.
  int stall_events = 0;
  int retry_events = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; seed += 4) {
    const RandomDag dag = random_dag(seed);
    const ProfileResult res = run_timing(dag.graph, SchedulePolicy::kBarrier);
    const sim::FaultInjector faults{seed ^ 0xFA517,
                                    sim::FaultProfile::stress()};
    for (const SchedulePolicy policy :
         {SchedulePolicy::kBarrier, SchedulePolicy::kOverlap}) {
      const Trace trace =
          schedule(dag.graph, res.node_execs, chip(), policy, &faults);
      ASSERT_EQ(violations_for(dag.graph, res.node_execs, trace, policy), "")
          << "seed " << seed << " policy " << schedule_policy_name(policy);
      // Determinism: the same injector reproduces the trace byte-for-byte.
      const Trace again =
          schedule(dag.graph, res.node_execs, chip(), policy, &faults);
      ASSERT_EQ(trace.to_chrome_json(), again.to_chrome_json())
          << "seed " << seed;
      for (const auto& e : trace.events()) {
        stall_events += e.kind == TraceEventKind::kStall;
        retry_events += e.retry > 0;
      }
    }
  }
  // The stress profile must actually exercise both fault paths.
  EXPECT_GT(stall_events, 0);
  EXPECT_GT(retry_events, 0);
}

TEST(ScheduleFuzz, FusionPreservesFunctionalOutputsUnderFaults) {
  // Faults perturb timing, never numerics: fusion on/off stays bit-identical
  // with an injector attached to the run.
  const sim::FaultInjector faults{99, sim::FaultProfile::stress()};
  for (std::uint64_t seed = 0; seed < kSeeds; seed += 32) {
    const RandomDag dag = random_dag(seed);
    const auto feeds = random_feeds(dag.graph, seed);

    Runtime rt(chip());
    RunOptions opts;
    opts.mode = tpc::ExecMode::kFunctional;
    opts.faults = &faults;
    const ProfileResult plain = rt.run(dag.graph, feeds, opts);
    CompileOptions fuse;
    fuse.fuse_elementwise = true;
    const ProfileResult fused =
        rt.run(rt.compile(dag.graph, fuse), feeds, opts);

    ASSERT_EQ(plain.outputs.size(), fused.outputs.size()) << "seed " << seed;
    for (const auto& [v, t] : plain.outputs) {
      ASSERT_TRUE(fused.outputs.count(v)) << "seed " << seed;
      EXPECT_EQ(ops::max_abs_diff(t, fused.outputs.at(v)), 0.0)
          << "seed " << seed << " value '" << dag.graph.value(v).name << "'";
    }
  }
}

TEST(ScheduleFuzz, ValidatorFlagsCorruptedFaultTraces) {
  // The fault invariants are only evidence if they can fail: find a fuzz
  // seed whose fault-injected schedule carries both a stall and a retried
  // DMA, then break each invariant in a targeted way.
  const sim::FaultInjector faults{5, sim::FaultProfile::stress()};
  std::uint64_t seed = kSeeds;
  Trace trace;
  RandomDag dag;
  std::vector<NodeExec> execs;
  for (std::uint64_t s = 0; s < kSeeds; ++s) {
    RandomDag d = random_dag(s);
    ProfileResult res = run_timing(d.graph, SchedulePolicy::kBarrier);
    Trace t = schedule(d.graph, res.node_execs, chip(),
                       SchedulePolicy::kBarrier, &faults);
    bool has_stall = false;
    bool has_retry = false;
    for (const auto& e : t.events()) {
      has_stall |= e.kind == TraceEventKind::kStall;
      has_retry |= e.retry > 0;
    }
    if (has_stall && has_retry) {
      seed = s;
      dag = std::move(d);
      execs = std::move(res.node_execs);
      trace = std::move(t);
      break;
    }
  }
  ASSERT_LT(seed, kSeeds) << "no fuzz seed carried both fault paths";
  ASSERT_EQ(violations_for(dag.graph, execs, trace, SchedulePolicy::kBarrier),
            "");

  auto corrupted = [&](auto mutate) {
    Trace t;
    for (std::size_t i = 0; i < trace.events().size(); ++i) {
      TraceEvent e = trace.events()[i];
      mutate(i, e);
      t.add(e);
    }
    return TraceValidator::format(TraceValidator::validate(
        dag.graph, execs, t, SchedulePolicy::kBarrier, chip()));
  };

  // Shove a stall outside its parent span: stall-nesting.
  std::size_t stall = trace.events().size();
  for (std::size_t i = 0; i < trace.events().size(); ++i) {
    if (trace.events()[i].kind == TraceEventKind::kStall) stall = i;
  }
  ASSERT_LT(stall, trace.events().size());
  const auto span = trace.events()[stall].end - trace.events()[stall].start;
  const std::string dangling = corrupted([&](std::size_t i, TraceEvent& e) {
    if (i == stall) {
      e.start = trace.makespan() + span;
      e.end = e.start + span;
    }
  });
  EXPECT_NE(dangling.find("stall-nesting"), std::string::npos);

  // Break a retry chain's attempt numbering: retry-overlap.
  std::size_t retried = trace.events().size();
  for (std::size_t i = 0; i < trace.events().size(); ++i) {
    if (trace.events()[i].retry > 0) retried = i;
  }
  ASSERT_LT(retried, trace.events().size());
  const std::string renumbered = corrupted([&](std::size_t i, TraceEvent& e) {
    if (i == retried) e.retry += 1;
  });
  EXPECT_NE(renumbered.find("retry-overlap"), std::string::npos);

  // Make a retry start before its predecessor finished: retry-overlap.
  const std::string overlapping = corrupted([&](std::size_t i, TraceEvent& e) {
    if (i == retried) {
      const auto d = e.end - e.start;
      e.start = sim::SimTime::zero();
      e.end = d;
    }
  });
  EXPECT_NE(overlapping.find("retry-overlap"), std::string::npos);
}

TEST(ScheduleFuzz, ValidatorFlagsInjectedCorruption) {
  // The fuzz is only evidence if the validator can actually fail: corrupt a
  // scheduled trace in targeted ways and expect the matching invariant.
  // Pick the first seed whose schedule contains a DMA so every corruption
  // below has something to bite on.
  std::uint64_t seed = kSeeds;
  for (std::uint64_t s = 0; s < kSeeds; ++s) {
    const ProfileResult probe =
        run_timing(random_dag(s).graph, SchedulePolicy::kBarrier);
    for (const auto& e : probe.trace.events()) {
      if (e.kind == TraceEventKind::kDma) {
        seed = s;
        break;
      }
    }
    if (seed < kSeeds) break;
  }
  ASSERT_LT(seed, kSeeds) << "no fuzz seed produced a DMA";
  const RandomDag dag = random_dag(seed);
  const ProfileResult res = run_timing(dag.graph, SchedulePolicy::kBarrier);
  ASSERT_EQ(violations_for(dag.graph, res.node_execs, res.trace,
                           SchedulePolicy::kBarrier),
            "");

  auto corrupted = [&](auto mutate) {
    Trace t;
    for (std::size_t i = 0; i < res.trace.events().size(); ++i) {
      TraceEvent e = res.trace.events()[i];
      mutate(i, e);
      t.add(e);
    }
    return TraceValidator::format(TraceValidator::validate(
        dag.graph, res.node_execs, t, SchedulePolicy::kBarrier, chip()));
  };

  // Shift the last late compute event's start to t=0: its duration no longer
  // matches its NodeExec, and typically its dependencies break too.
  std::size_t late = res.trace.events().size();
  for (std::size_t i = 0; i < res.trace.events().size(); ++i) {
    const TraceEvent& e = res.trace.events()[i];
    if (e.kind == TraceEventKind::kCompute && e.start > sim::SimTime::zero()) {
      late = i;
    }
  }
  ASSERT_LT(late, res.trace.events().size());
  const std::string shifted = corrupted([&](std::size_t i, TraceEvent& e) {
    if (i == late) e.start = sim::SimTime::zero();
  });
  EXPECT_NE(shifted, "");

  // Inflate one event's flops: exec-match.
  std::size_t first_compute = res.trace.events().size();
  for (std::size_t i = 0; i < res.trace.events().size(); ++i) {
    if (res.trace.events()[i].kind == TraceEventKind::kCompute) {
      first_compute = i;
      break;
    }
  }
  ASSERT_LT(first_compute, res.trace.events().size());
  const std::string wrong_flops = corrupted([&](std::size_t i, TraceEvent& e) {
    if (i == first_compute) e.flops += 1;
  });
  EXPECT_NE(wrong_flops.find("exec-match"), std::string::npos);

  // Drop every DMA: missing-dma.
  Trace no_dma;
  for (const TraceEvent& e : res.trace.events()) {
    if (e.kind != TraceEventKind::kDma) no_dma.add(e);
  }
  const std::string missing = TraceValidator::format(TraceValidator::validate(
      dag.graph, res.node_execs, no_dma, SchedulePolicy::kBarrier, chip()));
  EXPECT_NE(missing.find("missing-dma"), std::string::npos);
}

}  // namespace
}  // namespace gaudi::graph
