// Graph IR, compiler and runtime tests: shape inference, the Table 1 engine
// mapping, functional execution against the tensor reference, liveness-based
// memory accounting, scheduler invariants, and trace analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/analysis.hpp"
#include "graph/autodiff.hpp"
#include "graph/runtime.hpp"
#include "tensor/ops.hpp"

namespace gaudi::graph {
namespace {

namespace ops = gaudi::tensor::ops;
using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

sim::ChipConfig chip() { return sim::ChipConfig::hls1(); }

ProfileResult run_functional(const Graph& g,
                             const std::unordered_map<ValueId, Tensor>& feeds,
                             SchedulePolicy policy = SchedulePolicy::kBarrier) {
  Runtime rt(chip());
  RunOptions opts;
  opts.mode = tpc::ExecMode::kFunctional;
  opts.policy = policy;
  return rt.run(g, feeds, opts);
}

ProfileResult run_timing(const Graph& g,
                         SchedulePolicy policy = SchedulePolicy::kBarrier) {
  Runtime rt(chip());
  RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.policy = policy;
  return rt.run(g, {}, opts);
}

// ---------------------------------------------------------------------------
// Builder and shape inference
// ---------------------------------------------------------------------------

TEST(GraphBuilder, ShapeInferenceAcrossOps) {
  Graph g;
  const ValueId x = g.input(Shape{{4, 8}});
  const ValueId w = g.param(Shape{{8, 16}}, "w");
  const ValueId y = g.matmul(x, w);
  EXPECT_TRUE(g.value(y).shape == (Shape{{4, 16}}));
  EXPECT_TRUE(g.value(g.softmax(y)).shape == (Shape{{4, 16}}));
  EXPECT_TRUE(g.value(g.reduce_sum(y)).shape == (Shape{{4, 1}}));
  EXPECT_TRUE(g.value(g.transpose(y)).shape == (Shape{{16, 4}}));
  const ValueId q = g.input(Shape{{2, 3, 4, 8}});
  EXPECT_TRUE(g.value(g.swap_axes12(q)).shape == (Shape{{2, 4, 3, 8}}));
  EXPECT_TRUE(g.value(g.glu(g.input(Shape{{4, 10}}))).shape == (Shape{{4, 5}}));
}

TEST(GraphBuilder, MatmulTransposesAffectShapes) {
  Graph g;
  const ValueId a = g.input(Shape{{3, 8, 4}});
  const ValueId b = g.input(Shape{{3, 8, 6}});
  const ValueId y = g.matmul(a, b, /*trans_a=*/true, /*trans_b=*/false);
  EXPECT_TRUE(g.value(y).shape == (Shape{{3, 4, 6}}));
  EXPECT_THROW(g.matmul(a, b, false, false), sim::InvalidArgument);
}

TEST(GraphBuilder, ValidatesInputs) {
  Graph g;
  const ValueId x = g.input(Shape{{4, 8}});
  EXPECT_THROW(g.add(x, g.input(Shape{{3, 3}})), sim::InvalidArgument);
  EXPECT_THROW(g.add_op(OpKind::kSoftmax, {ValueId{99}}, {}, "bad"),
               sim::InvalidArgument);
  EXPECT_THROW(g.embedding(g.param(Shape{{10, 4}}, "t"), x),  // ids must be i32
               sim::InvalidArgument);
  EXPECT_THROW(g.reshape(x, Shape{{5, 5}}), sim::InvalidArgument);
}

TEST(GraphBuilder, TracksProducersAndConsumers) {
  Graph g;
  const ValueId x = g.input(Shape{{4}});
  const ValueId y = g.add_scalar(x, 1.0f);
  const ValueId z = g.mul(y, y);
  EXPECT_EQ(g.value(x).producer, -1);
  EXPECT_EQ(g.value(y).producer, 0);
  EXPECT_EQ(g.value(y).consumers.size(), 2u);  // mul consumes it twice
  EXPECT_EQ(g.value(z).producer, 1);
  EXPECT_EQ(g.param_bytes(), 0u);
}

TEST(EngineMapping, OnlyMatmulGoesToMme) {
  // The paper's Table 1 as an invariant over the whole op vocabulary.
  for (int k = 0; k <= static_cast<int>(OpKind::kReshape); ++k) {
    const auto kind = static_cast<OpKind>(k);
    const Engine e = engine_of(kind);
    if (kind == OpKind::kMatMul) {
      EXPECT_EQ(e, Engine::kMme);
    } else if (kind == OpKind::kReshape) {
      EXPECT_EQ(e, Engine::kNone);
    } else {
      EXPECT_EQ(e, Engine::kTpc) << op_kind_name(kind);
    }
  }
}

// ---------------------------------------------------------------------------
// Functional execution
// ---------------------------------------------------------------------------

TEST(Runtime, FunctionalCompositeMatchesReference) {
  // y = softmax(x @ w + b) checked against the tensor reference.
  Graph g;
  const ValueId x = g.input(Shape{{5, 8}}, DType::F32, "x");
  const ValueId w = g.param(Shape{{8, 12}}, "w");
  const ValueId b = g.param(Shape{{12}}, "b");
  const ValueId y = g.softmax(g.matmul_bias(x, w, b));
  g.mark_output(y);

  const sim::CounterRng rng(71);
  const Tensor xv = Tensor::uniform(Shape{{5, 8}}, rng.stream(1), -1.0f, 1.0f);
  const Tensor wv = Tensor::uniform(Shape{{8, 12}}, rng.stream(2), -1.0f, 1.0f);
  const Tensor bv = Tensor::uniform(Shape{{12}}, rng.stream(3), -1.0f, 1.0f);
  const auto result = run_functional(g, {{x, xv}, {w, wv}, {b, bv}});

  const Tensor expect =
      ops::softmax_lastdim(ops::add_rowvec(ops::matmul(xv, wv), bv));
  EXPECT_LT(ops::max_abs_diff(result.outputs.at(y), expect), 1e-5);
}

TEST(Runtime, RequiresAllFeeds) {
  Graph g;
  const ValueId x = g.input(Shape{{2, 2}}, DType::F32, "x");
  g.mark_output(g.add_scalar(x, 1.0f));
  EXPECT_THROW(run_functional(g, {}), sim::InvalidArgument);
}

TEST(Runtime, ValidatesFeedShapeAndDtype) {
  Graph g;
  const ValueId x = g.input(Shape{{2, 2}}, DType::F32, "x");
  g.mark_output(g.add_scalar(x, 1.0f));
  EXPECT_THROW(run_functional(g, {{x, Tensor::zeros(Shape{{3, 3}})}}),
               sim::InvalidArgument);
  EXPECT_THROW(run_functional(g, {{x, Tensor::zeros(Shape{{2, 2}}, DType::I32)}}),
               sim::InvalidArgument);
}

TEST(Runtime, ReshapeAliasesWithoutCost) {
  Graph g;
  const ValueId x = g.input(Shape{{2, 6}}, DType::F32, "x");
  const ValueId r = g.reshape(x, Shape{{3, 4}});
  const ValueId y = g.add_scalar(r, 0.0f);
  g.mark_output(y);
  const Tensor xv = Tensor::uniform(Shape{{2, 6}}, sim::CounterRng{3});
  const auto result = run_functional(g, {{x, xv}});
  EXPECT_TRUE(result.outputs.at(y).shape() == (Shape{{3, 4}}));
  // Reshape contributes no trace event.
  for (const auto& e : result.trace.events()) {
    EXPECT_NE(e.name.find("reshape"), 0u);
  }
}

TEST(Runtime, TimingModeProducesSameScheduleAsFunctional) {
  Graph g;
  const ValueId x = g.input(Shape{{64, 64}}, DType::F32, "x");
  const ValueId w = g.param(Shape{{64, 64}}, "w");
  g.mark_output(g.softmax(g.matmul(x, w)));

  const auto timing = run_timing(g);
  const auto functional = run_functional(
      g, {{x, Tensor::zeros(Shape{{64, 64}})}, {w, Tensor::zeros(Shape{{64, 64}})}});
  EXPECT_EQ(timing.makespan.ps(), functional.makespan.ps());
  EXPECT_EQ(timing.trace.events().size(), functional.trace.events().size());
}

// ---------------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------------

TEST(Runtime, AccountsPeakMemoryWithLiveness) {
  Graph g;
  const std::int64_t n = 1024;  // 4 MB per tensor
  const ValueId x = g.input(Shape{{n, n}}, DType::F32, "x");
  ValueId h = x;
  for (int i = 0; i < 4; ++i) h = g.add_scalar(h, 1.0f);
  g.mark_output(h);

  const auto result = run_timing(g);
  const std::size_t tensor_bytes = n * n * 4;
  // Liveness: at most input + two chain temporaries alive at once.
  EXPECT_GE(result.hbm_peak_bytes, 2 * tensor_bytes);
  EXPECT_LE(result.hbm_peak_bytes, 3 * tensor_bytes);
}

TEST(Runtime, ThrowsWhenGraphExceedsHbm) {
  Graph g;
  // 8 GB per value; five simultaneously-live copies exceed 32 GB.
  const std::int64_t n = 46341;  // ~8.0 GB f32
  const ValueId x = g.input(Shape{{n, n}}, DType::F32, "x");
  const ValueId a = g.add_scalar(x, 1.0f);
  const ValueId b = g.add_scalar(x, 2.0f);
  const ValueId c = g.add_scalar(x, 3.0f);
  const ValueId d = g.add_scalar(x, 4.0f);
  g.mark_output(g.add(g.add(a, b), g.add(c, d)));
  EXPECT_THROW(run_timing(g), sim::ResourceExhausted);
}

// ---------------------------------------------------------------------------
// Scheduler invariants
// ---------------------------------------------------------------------------

Graph mixed_graph() {
  // Alternating MME/TPC work with an independent side branch.
  Graph g;
  const ValueId x = g.input(Shape{{256, 256}}, DType::F32, "x");
  const ValueId w1 = g.param(Shape{{256, 256}}, "w1");
  const ValueId w2 = g.param(Shape{{256, 256}}, "w2");
  const ValueId h1 = g.matmul(x, w1, false, false, "mm1");
  const ValueId a1 = g.softmax(h1, "sm1");
  const ValueId h2 = g.matmul(x, w2, false, false, "mm2");  // independent of a1
  const ValueId a2 = g.relu(h2);
  g.mark_output(g.add(a1, a2, "join"));
  return g;
}

TEST(Scheduler, NoOverlappingEventsPerEngine) {
  for (const auto policy : {SchedulePolicy::kBarrier, SchedulePolicy::kOverlap}) {
    const auto result = run_timing(mixed_graph(), policy);
    std::map<Engine, std::vector<TraceEvent>> per_engine;
    for (const auto& e : result.trace.events()) per_engine[e.engine].push_back(e);
    for (auto& [eng, events] : per_engine) {
      std::sort(events.begin(), events.end(),
                [](const TraceEvent& a, const TraceEvent& b) {
                  return a.start < b.start;
                });
      for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_GE(events[i].start, events[i - 1].end)
            << engine_name(eng) << " overlap under "
            << schedule_policy_name(policy);
      }
    }
  }
}

TEST(Scheduler, DependenciesAreRespected) {
  for (const auto policy : {SchedulePolicy::kBarrier, SchedulePolicy::kOverlap}) {
    const Graph g = mixed_graph();
    const auto result = run_timing(g, policy);
    // Map node -> event times.
    std::map<std::int32_t, const TraceEvent*> by_node;
    for (const auto& e : result.trace.events()) {
      if (e.node >= 0 && e.engine != Engine::kDma) by_node[e.node] = &e;
    }
    for (NodeId n = 0; n < static_cast<NodeId>(g.num_nodes()); ++n) {
      const auto it = by_node.find(n);
      if (it == by_node.end()) continue;
      for (const ValueId v : g.node(n).inputs) {
        const NodeId p = g.value(v).producer;
        if (p < 0) continue;
        const auto pit = by_node.find(p);
        if (pit == by_node.end()) continue;
        EXPECT_GE(it->second->start, pit->second->end)
            << "node " << n << " started before its producer finished";
      }
    }
  }
}

TEST(Scheduler, BarrierNeverOverlapsAcrossEngines) {
  const auto result = run_timing(mixed_graph(), SchedulePolicy::kBarrier);
  const auto& events = result.trace.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[i].engine == events[j].engine) continue;
      const bool disjoint =
          events[i].end <= events[j].start || events[j].end <= events[i].start;
      EXPECT_TRUE(disjoint) << events[i].name << " overlaps " << events[j].name;
    }
  }
}

TEST(Scheduler, OverlapIsNeverSlowerAndExploitsIndependence) {
  const auto barrier = run_timing(mixed_graph(), SchedulePolicy::kBarrier);
  const auto overlap = run_timing(mixed_graph(), SchedulePolicy::kOverlap);
  EXPECT_LE(overlap.makespan, barrier.makespan);
  // The independent mm2 branch can hide behind sm1's TPC time.
  EXPECT_LT(overlap.makespan.ps(), barrier.makespan.ps());
}

TEST(Scheduler, InsertsDmaOnCrossEngineEdges) {
  const auto result = run_timing(mixed_graph(), SchedulePolicy::kBarrier);
  int dma_events = 0;
  for (const auto& e : result.trace.events()) {
    if (e.engine == Engine::kDma) {
      ++dma_events;
      EXPECT_GT(e.bytes, 0u);
      EXPECT_EQ(e.name.rfind("dma:", 0), 0u);
    }
  }
  EXPECT_GT(dma_events, 0);
}

TEST(Scheduler, DmaIsDeduplicatedPerConsumerEngine) {
  // One value consumed twice by the same engine needs one DMA only.
  Graph g;
  const ValueId x = g.input(Shape{{64, 64}}, DType::F32, "x");
  const ValueId w = g.param(Shape{{64, 64}}, "w");
  const ValueId h = g.matmul(x, w, false, false, "mm");  // MME-produced
  const ValueId r1 = g.relu(h);                          // TPC consumer 1
  const ValueId r2 = g.softmax(h);                       // TPC consumer 2
  g.mark_output(g.add(r1, r2));
  const auto result = run_timing(g);
  int dma_for_h = 0;
  for (const auto& e : result.trace.events()) {
    if (e.engine == Engine::kDma && e.name.find("mm") != std::string::npos) {
      ++dma_for_h;
    }
  }
  EXPECT_EQ(dma_for_h, 1);
}

TEST(Scheduler, RecompileStallHappensOnceAndBlocks) {
  Graph g;
  const ValueId x = g.input(Shape{{16, 8}}, DType::F32, "x");
  const ValueId g1 = g.glu(x, /*requires_recompile=*/true, "glu1");
  const ValueId wide = g.add_op(OpKind::kBroadcastLast,
                                {g.reduce_sum(g1)}, [] {
                                  OpAttrs a;
                                  a.dim = 8;
                                  return a;
                                }(), "widen")[0];
  g.mark_output(g.glu(wide, true, "glu2"));

  const auto result = run_timing(g);
  int stalls = 0;
  sim::SimTime stall_end{};
  for (const auto& e : result.trace.events()) {
    if (e.engine == Engine::kHost) {
      ++stalls;
      stall_end = e.end;
      EXPECT_EQ(e.duration(), chip().compiler.recompile_stall);
    }
  }
  EXPECT_EQ(stalls, 1);  // compiled once, cached afterwards
  // Everything after the stall starts after it.
  for (const auto& e : result.trace.events()) {
    if (e.engine == Engine::kHost || e.start >= stall_end) continue;
    EXPECT_LE(e.end, stall_end);
  }
}

TEST(Scheduler, RunsAreDeterministic) {
  // Two runs of the same graph produce bit-identical traces — simulated
  // timing must not depend on host threading.
  const Graph g = mixed_graph();
  const auto a = run_timing(g, SchedulePolicy::kOverlap);
  const auto b = run_timing(g, SchedulePolicy::kOverlap);
  ASSERT_EQ(a.trace.events().size(), b.trace.events().size());
  for (std::size_t i = 0; i < a.trace.events().size(); ++i) {
    EXPECT_EQ(a.trace.events()[i].start.ps(), b.trace.events()[i].start.ps());
    EXPECT_EQ(a.trace.events()[i].end.ps(), b.trace.events()[i].end.ps());
    EXPECT_EQ(a.trace.events()[i].name, b.trace.events()[i].name);
  }
  EXPECT_EQ(a.hbm_peak_bytes, b.hbm_peak_bytes);
}

// ---------------------------------------------------------------------------
// Trace analysis
// ---------------------------------------------------------------------------

Trace make_trace() {
  Trace t;
  auto ev = [](Engine e, const char* name, double s, double d) {
    TraceEvent x;
    x.engine = e;
    x.name = name;
    x.start = sim::SimTime::from_ms(s);
    x.end = sim::SimTime::from_ms(s + d);
    return x;
  };
  t.add(ev(Engine::kMme, "mm1", 0.0, 2.0));
  t.add(ev(Engine::kTpc, "softmax", 2.0, 6.0));
  t.add(ev(Engine::kMme, "mm2", 8.0, 2.0));
  return t;
}

TEST(TraceAnalysis, BusyUtilizationGaps) {
  const Trace t = make_trace();
  EXPECT_DOUBLE_EQ(t.makespan().ms(), 10.0);
  EXPECT_DOUBLE_EQ(t.busy(Engine::kMme).ms(), 4.0);
  EXPECT_NEAR(t.utilization(Engine::kMme), 0.4, 1e-9);
  const auto gaps = t.gaps(Engine::kMme);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_DOUBLE_EQ(gaps[0].duration().ms(), 6.0);
  EXPECT_DOUBLE_EQ(t.busy_matching("softmax", Engine::kTpc).ms(), 6.0);
  EXPECT_DOUBLE_EQ(t.share_of_engine("softmax", Engine::kTpc), 1.0);
  EXPECT_EQ(t.busy_by_name(Engine::kMme).size(), 2u);
}

TEST(TraceAnalysis, ChromeJsonIsWellFormedish) {
  const std::string json = make_trace().to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"softmax\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TraceAnalysis, AsciiTimelineRendersRows) {
  const std::string art = make_trace().ascii_timeline(50);
  EXPECT_NE(art.find("MME"), std::string::npos);
  EXPECT_NE(art.find("TPC"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(TraceAnalysis, RejectsNegativeDurations) {
  Trace t;
  TraceEvent e;
  e.start = sim::SimTime::from_ms(2.0);
  e.end = sim::SimTime::from_ms(1.0);
  EXPECT_THROW(t.add(e), sim::InvalidArgument);
}

// Minimal JSON string unescaper for the round-trip test below.
std::string json_unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    const char c = s[++i];
    switch (c) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u':
        out += static_cast<char>(std::stoi(s.substr(i + 1, 4), nullptr, 16));
        i += 4;
        break;
      default: out += c; break;
    }
  }
  return out;
}

TEST(TraceAnalysis, ChromeJsonRoundTripsHostileLabels) {
  // Tabs, carriage returns and raw control bytes show up in labels built
  // from user-provided layer names; the export must keep the JSON parseable.
  const std::string label = "evil\tname\rwith\nctl\x01\x1f \"quoted\" \\slash";
  Trace t;
  TraceEvent e;
  e.engine = Engine::kTpc;
  e.name = label;
  e.end = sim::SimTime::from_ms(1.0);
  t.add(e);

  const std::string json = t.to_chrome_json();
  // No raw control character may survive escaping anywhere in the document.
  for (const char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte";
  }
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\r"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
  // Unescaping recovers the original label byte-for-byte.
  EXPECT_NE(json_unescape(json).find(label), std::string::npos);
}

TEST(TraceAnalysis, ShareMatchingRespectsTokenBoundaries) {
  // A Fig 4-style attention trace with decoy names: "expand"/"exponent" must
  // not count toward the exp share, "offsets" not toward offset.
  Trace t;
  double at = 0.0;
  auto ev = [&](const char* name, double d) {
    TraceEvent x;
    x.engine = Engine::kTpc;
    x.name = name;
    x.start = sim::SimTime::from_ms(at);
    x.end = sim::SimTime::from_ms(at + d);
    at += d;
    t.add(x);
  };
  ev("h0.softmax", 8.0);
  ev("h0.q_exp", 1.0);
  ev("exp", 1.0);
  ev("h0.pre_scale_q", 0.5);
  ev("h0.q_offset", 0.5);
  ev("h0.expand", 3.0);
  ev("h0.exponent", 2.0);
  ev("h0.offsets", 1.0);  // 17 ms of TPC busy in total

  EXPECT_DOUBLE_EQ(t.busy_matching("exp", Engine::kTpc).ms(), 2.0);
  EXPECT_DOUBLE_EQ(t.busy_matching("offset", Engine::kTpc).ms(), 0.5);
  EXPECT_DOUBLE_EQ(t.busy_matching("pre_scale", Engine::kTpc).ms(), 0.5);
  EXPECT_NEAR(t.share_of_engine("softmax", Engine::kTpc), 8.0 / 17.0, 1e-12);

  const core::TraceSummary s = core::summarize(t);
  EXPECT_NEAR(s.softmax_share_of_tpc, 8.0 / 17.0, 1e-12);
  EXPECT_NEAR(s.exp_share_of_tpc, 3.0 / 17.0, 1e-12);
}

}  // namespace
}  // namespace gaudi::graph
