// Numerics sentinel tests: sweep classification, guard policy resolution,
// guarded execution (warn/trap), SDC checksum detection, GradScaler, and the
// inject-NaN fuzz mode over random DAGs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "graph/random_graph.hpp"
#include "graph/runtime.hpp"
#include "nn/train.hpp"
#include "sim/error.hpp"
#include "sim/fault.hpp"
#include "sim/numerics.hpp"
#include "tensor/ops.hpp"

namespace gaudi {
namespace {

using graph::NumericsAnomaly;
using graph::RunOptions;
using sim::NumericsPolicy;
using sim::NumericsStats;

TEST(NumericsSweep, ClassifiesF32Elements) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> data = {
      1.0f,
      -3.5f,
      std::numeric_limits<float>::quiet_NaN(),
      inf,
      -inf,
      denorm,
      std::bit_cast<float>(0x7F7F8000u),  // rounds to bf16 +inf
      0.0f,
  };
  const NumericsStats s = sim::sweep_f32(data);
  EXPECT_EQ(s.count, data.size());
  EXPECT_EQ(s.nan_count, 1u);
  EXPECT_EQ(s.inf_count, 2u);
  EXPECT_EQ(s.denormal_count, 1u);
  // Infinities are counted as inf, not as bf16 cast overflow; only the
  // finite boundary value overflows the cast.
  EXPECT_EQ(s.bf16_overflow_count, 1u);
  // NaN never contributes to max_abs; Inf does.
  EXPECT_EQ(s.max_abs, inf);
  EXPECT_TRUE(s.anomalous());

  const std::vector<float> clean = {0.0f, 1.0f, -2.0f};
  const NumericsStats c = sim::sweep_f32(clean);
  EXPECT_FALSE(c.anomalous());
  EXPECT_EQ(c.max_abs, 2.0f);
}

TEST(NumericsSweep, ClassifiesBf16Encodings) {
  const std::vector<std::uint16_t> data = {
      0x3F80,  // 1.0
      0x7FC0,  // quiet NaN
      0x7F80,  // +inf
      0xFF80,  // -inf
      0x0001,  // denormal
      0x0000,  // zero
  };
  const NumericsStats s = sim::sweep_bf16(data);
  EXPECT_EQ(s.count, data.size());
  EXPECT_EQ(s.nan_count, 1u);
  EXPECT_EQ(s.inf_count, 2u);
  EXPECT_EQ(s.denormal_count, 1u);
  EXPECT_TRUE(s.anomalous());
}

TEST(NumericsSweep, MergeAccumulates) {
  NumericsStats a = sim::sweep_f32(std::vector<float>{1.0f, 2.0f});
  const NumericsStats b = sim::sweep_f32(
      std::vector<float>{std::numeric_limits<float>::quiet_NaN(), -8.0f});
  a.merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.nan_count, 1u);
  EXPECT_EQ(a.max_abs, 8.0f);
  EXPECT_TRUE(a.anomalous());
}

TEST(NumericsSweep, PoisonFillReadsAsNan) {
  tensor::Tensor t = tensor::Tensor::zeros(tensor::Shape{{7}});
  tensor::ops::poison_fill(t);
  const NumericsStats s = tensor::ops::numerics_sweep(t);
  EXPECT_EQ(s.count, 7u);
  EXPECT_EQ(s.nan_count, 7u);
}

TEST(NumericsSweep, GuardSweepTimeScalesWithBytes) {
  const double bw = 1e12;
  const sim::SimTime small = sim::guard_sweep_time(1024, bw);
  const sim::SimTime large = sim::guard_sweep_time(1024 * 1024, bw);
  EXPECT_LT(sim::SimTime{}, small);
  EXPECT_LT(small, large);
}

TEST(NumericsEnv, GuardPolicyParsing) {
  const auto with_env = [](const char* value) {
    if (value == nullptr) {
      ::unsetenv("GAUDI_GUARD");
    } else {
      ::setenv("GAUDI_GUARD", value, 1);
    }
    const NumericsPolicy p = sim::numerics_policy_from_env();
    ::unsetenv("GAUDI_GUARD");
    return p;
  };
  EXPECT_EQ(with_env(nullptr), NumericsPolicy::kOff);
  EXPECT_EQ(with_env("trap"), NumericsPolicy::kTrap);
  EXPECT_EQ(with_env("TRAP"), NumericsPolicy::kTrap);
  EXPECT_EQ(with_env("warn"), NumericsPolicy::kWarn);
  EXPECT_EQ(with_env("1"), NumericsPolicy::kWarn);   // boolean on => warn
  EXPECT_EQ(with_env("on"), NumericsPolicy::kWarn);
  EXPECT_EQ(with_env("0"), NumericsPolicy::kOff);
  EXPECT_EQ(with_env("off"), NumericsPolicy::kOff);
  EXPECT_EQ(with_env("paranoid"), NumericsPolicy::kOff);  // warns once
}

TEST(GradScaler, BacksOffAndSkipsOnOverflow) {
  nn::GradScalerConfig cfg;
  cfg.init_scale = 1024.0f;
  nn::GradScaler s(cfg);
  EXPECT_TRUE(s.update(false));
  EXPECT_EQ(s.scale(), 1024.0f);
  EXPECT_FALSE(s.update(true));  // overflow: skip + halve
  EXPECT_EQ(s.scale(), 512.0f);
  EXPECT_EQ(s.skipped_steps(), 1);
  EXPECT_EQ(s.clean_streak(), 0);
}

TEST(GradScaler, GrowsOnlyAfterTheFullCleanStreak) {
  nn::GradScalerConfig cfg;
  cfg.init_scale = 256.0f;
  cfg.growth_interval = 4;
  nn::GradScaler s(cfg);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(s.update(false));
    EXPECT_EQ(s.scale(), 256.0f);  // hysteresis: not yet
  }
  EXPECT_TRUE(s.update(false));
  EXPECT_EQ(s.scale(), 512.0f);  // 4th clean step doubles
  // Overflow resets the streak; growth needs another full interval.
  EXPECT_FALSE(s.update(true));
  EXPECT_EQ(s.scale(), 256.0f);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(s.update(false));
  EXPECT_EQ(s.scale(), 256.0f);
}

TEST(GradScaler, ClampsAtMinAndMax) {
  nn::GradScalerConfig cfg;
  cfg.init_scale = 2.0f;
  cfg.min_scale = 1.0f;
  cfg.max_scale = 8.0f;
  cfg.growth_interval = 1;
  nn::GradScaler s(cfg);
  for (int i = 0; i < 10; ++i) (void)s.update(true);
  EXPECT_EQ(s.scale(), 1.0f);
  for (int i = 0; i < 10; ++i) (void)s.update(false);
  EXPECT_EQ(s.scale(), 8.0f);
}

/// Small graph with a div whose denominator feed contains a zero: the
/// quotient originates an Inf the guard must blame on exactly that op.
struct DivGraph {
  graph::Graph g;
  graph::ValueId a, b, q, y;
  std::unordered_map<graph::ValueId, tensor::Tensor> feeds;

  DivGraph() {
    a = g.input(tensor::Shape{{2, 4}}, tensor::DType::F32, "numerator");
    b = g.input(tensor::Shape{{2, 4}}, tensor::DType::F32, "denominator");
    q = g.div(a, b, "quotient");
    y = g.add(q, a, "downstream");
    g.mark_output(y);

    tensor::Tensor av = tensor::Tensor::full(tensor::Shape{{2, 4}}, 1.0f);
    tensor::Tensor bv = tensor::Tensor::full(tensor::Shape{{2, 4}}, 2.0f);
    bv.f32_mut()[3] = 0.0f;  // 1/0 -> +inf
    feeds.emplace(a, std::move(av));
    feeds.emplace(b, std::move(bv));
  }
};

TEST(NumericsGuard, WarnBlamesTheOriginatingOp) {
  DivGraph d;
  graph::Runtime rt;
  RunOptions opts;
  opts.guard = NumericsPolicy::kWarn;
  const graph::ProfileResult r = rt.run(d.g, d.feeds, opts);

  ASSERT_FALSE(r.anomalies.empty());
  const NumericsAnomaly& a = r.anomalies.front();
  EXPECT_EQ(a.kind, NumericsAnomaly::Kind::kNonFinite);
  EXPECT_EQ(a.value, d.q);
  EXPECT_EQ(a.stats.inf_count, 1u);
  EXPECT_NE(a.report.find("quotient"), std::string::npos);
  EXPECT_NE(a.report.find("contamination path"), std::string::npos);
  // The downstream add inherits the Inf and must not re-originate.
  for (const NumericsAnomaly& extra : r.anomalies) {
    EXPECT_NE(extra.value, d.y);
  }
  EXPECT_GE(r.numerics.inf_count, 1u);
  EXPECT_EQ(r.guard_policy, NumericsPolicy::kWarn);
}

TEST(NumericsGuard, TrapThrowsNamingTheFault) {
  DivGraph d;
  graph::Runtime rt;
  RunOptions opts;
  opts.guard = NumericsPolicy::kTrap;
  try {
    (void)rt.run(d.g, d.feeds, opts);
    FAIL() << "trap policy should have thrown";
  } catch (const sim::NumericsError& e) {
    EXPECT_NE(std::string(e.what()).find("quotient"), std::string::npos);
  }
}

TEST(NumericsGuard, OffIsSilentAndLeavesNoResidue) {
  DivGraph d;
  graph::Runtime rt;
  RunOptions opts;
  opts.guard = NumericsPolicy::kOff;
  const graph::ProfileResult r = rt.run(d.g, d.feeds, opts);
  EXPECT_TRUE(r.anomalies.empty());
  EXPECT_EQ(r.numerics.count, 0u);
  for (const graph::TraceEvent& e : r.trace.events()) {
    EXPECT_NE(e.kind, graph::TraceEventKind::kGuard);
    EXPECT_FALSE(e.has_stats);
  }
  // The Inf still flows to the output — off means off, not clamped.
  const NumericsStats s = tensor::ops::numerics_sweep(r.outputs.at(d.y));
  EXPECT_EQ(s.inf_count, 1u);
}

TEST(NumericsGuard, GuardDoesNotPerturbResults) {
  const graph::RandomDag dag = graph::random_dag(42);
  const auto feeds = graph::random_feeds(dag.graph, 42);
  graph::Runtime rt;

  RunOptions off;
  off.guard = NumericsPolicy::kOff;
  RunOptions warn;
  warn.guard = NumericsPolicy::kWarn;
  const graph::ProfileResult r_off = rt.run(dag.graph, feeds, off);
  const graph::ProfileResult r_warn = rt.run(dag.graph, feeds, warn);

  ASSERT_EQ(r_off.outputs.size(), r_warn.outputs.size());
  for (const auto& [v, t] : r_off.outputs) {
    const tensor::Tensor& w = r_warn.outputs.at(v);
    ASSERT_EQ(t.numel(), w.numel());
    if (t.dtype() != tensor::DType::F32) continue;
    const auto ts = t.f32();
    const auto ws = w.f32();
    for (std::size_t i = 0; i < ts.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(ts[i]),
                std::bit_cast<std::uint32_t>(ws[i]));
    }
  }
  // Repeated guard-off runs are byte-identical (trace included).
  const graph::ProfileResult r_off2 = rt.run(dag.graph, feeds, off);
  EXPECT_EQ(r_off.trace.to_chrome_json(), r_off2.trace.to_chrome_json());
}

TEST(NumericsGuard, TimingTraceCarriesGuardSpansAndValidates) {
  const graph::RandomDag dag = graph::random_dag(7);
  graph::Runtime rt;
  RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.guard = NumericsPolicy::kWarn;
  opts.validate = true;  // validator enforces the guard-span invariants
  const graph::ProfileResult guarded = rt.run(dag.graph, {}, opts);

  std::size_t guard_events = 0;
  for (const graph::TraceEvent& e : guarded.trace.events()) {
    if (e.kind == graph::TraceEventKind::kGuard) {
      ++guard_events;
      EXPECT_TRUE(e.has_stats);
      EXPECT_NE(e.name.find(".guard"), std::string::npos);
    } else {
      EXPECT_FALSE(e.has_stats);
    }
  }
  EXPECT_GT(guard_events, 0u);
  EXPECT_GT(guarded.numerics.count, 0u);  // coverage reported in timing mode

  opts.guard = NumericsPolicy::kOff;
  const graph::ProfileResult plain = rt.run(dag.graph, {}, opts);
  for (const graph::TraceEvent& e : plain.trace.events()) {
    EXPECT_NE(e.kind, graph::TraceEventKind::kGuard);
  }
  EXPECT_LT(plain.makespan, guarded.makespan);  // the sweep costs time
}

// A reshape's view aliases its input's bytes, so the guard covers them once,
// at their producer, in either execution mode: relu and softmax each retire
// 512 elements and the view between them none.
TEST(NumericsGuard, CoverageIsTheSameInBothModesAcrossAView) {
  graph::Graph g;
  const graph::ValueId x =
      g.input(tensor::Shape{{16, 32}}, tensor::DType::F32, "x");
  const graph::ValueId r = g.reshape(g.relu(x), tensor::Shape{{32, 16}});
  g.mark_output(g.softmax(r));
  std::unordered_map<graph::ValueId, tensor::Tensor> feeds;
  feeds.emplace(x, tensor::Tensor::full(tensor::Shape{{16, 32}}, 0.5f));

  graph::Runtime rt;
  RunOptions opts;
  opts.guard = NumericsPolicy::kWarn;
  const graph::ProfileResult functional = rt.run(g, feeds, opts);
  opts.mode = tpc::ExecMode::kTiming;
  const graph::ProfileResult timing = rt.run(g, {}, opts);
  EXPECT_EQ(functional.numerics.count, 1024u);
  EXPECT_EQ(timing.numerics.count, 1024u);
  EXPECT_TRUE(functional.anomalies.empty());
}

TEST(NumericsGuard, ChecksumCatchesInjectedCorruption) {
  graph::Graph g;
  const graph::ValueId a =
      g.input(tensor::Shape{{4, 4}}, tensor::DType::F32, "a");
  const graph::ValueId s1 = g.mul(a, a, "sq");
  const graph::ValueId s2 = g.add(s1, a, "sum");
  g.mark_output(s2);
  std::unordered_map<graph::ValueId, tensor::Tensor> feeds;
  feeds.emplace(a, tensor::Tensor::full(tensor::Shape{{4, 4}}, 0.5f));

  graph::Runtime rt;
  RunOptions opts;
  opts.guard = NumericsPolicy::kWarn;
  opts.corrupt_value = s1;
  const graph::ProfileResult r = rt.run(g, feeds, opts);

  ASSERT_FALSE(r.anomalies.empty());
  const NumericsAnomaly& anom = r.anomalies.front();
  EXPECT_EQ(anom.kind, NumericsAnomaly::Kind::kSdc);
  EXPECT_EQ(anom.value, s1);
  EXPECT_NE(anom.report.find("checksum"), std::string::npos);
  EXPECT_NE(anom.report.find("sq"), std::string::npos);

  // Unguarded, the same corruption sails straight into the output.
  opts.guard = NumericsPolicy::kOff;
  const graph::ProfileResult silent = rt.run(g, feeds, opts);
  EXPECT_TRUE(silent.anomalies.empty());
  const NumericsStats out = tensor::ops::numerics_sweep(silent.outputs.at(s2));
  EXPECT_GT(out.nan_count, 0u);
}

TEST(NumericsGuard, FaultInjectorBitFlipsAreCaught) {
  sim::FaultProfile profile;
  profile.sdc_bit_flip_rate = 0.9;  // fires on most launches
  const sim::FaultInjector faults{0xBEEF, profile};

  const graph::RandomDag dag = graph::random_dag(5);
  const auto feeds = graph::random_feeds(dag.graph, 5);
  graph::Runtime rt;
  const graph::CompiledGraph cg = rt.compile(dag.graph);
  RunOptions opts;
  opts.guard = NumericsPolicy::kWarn;
  opts.faults = &faults;
  const graph::ProfileResult r = rt.run(cg, feeds, opts);
  ASSERT_FALSE(r.sdc_injections.empty());
  for (const graph::SdcInjection& inj : r.sdc_injections) {
    ASSERT_NE(inj.value, graph::kInvalidValue);
    EXPECT_GE(inj.node, 0);
    // An upset lands in device bytes: never in a reshape's view.
    EXPECT_TRUE(cg.placements[static_cast<std::size_t>(inj.value)].has_buffer)
        << "flip at node " << inj.node << " hit value " << inj.value
        << ", which owns no buffer";
  }
  // Injection is independent of detection: the unguarded run records the
  // same flips but reports nothing.
  RunOptions off = opts;
  off.guard = NumericsPolicy::kOff;
  const graph::ProfileResult silent = rt.run(cg, feeds, off);
  EXPECT_EQ(silent.sdc_injections.size(), r.sdc_injections.size());
  EXPECT_TRUE(silent.anomalies.empty());
}

TEST(TrainLoop, LossScalingRescuesACorruptedGradient) {
  nn::TrainOptions opts;
  opts.steps = 3;
  opts.corrupt_grad_step = 1;

  opts.loss_scaling = false;
  const nn::TrainResult bare = nn::train_language_model(opts);
  EXPECT_FALSE(bare.finite);

  opts.loss_scaling = true;
  const nn::TrainResult scaled = nn::train_language_model(opts);
  EXPECT_TRUE(scaled.finite);
  EXPECT_EQ(scaled.skipped_steps, 1);
  ASSERT_EQ(scaled.steps.size(), 3u);
  EXPECT_FALSE(scaled.steps[1].applied);
  EXPECT_GT(scaled.steps[1].grad_stats.nan_count, 0u);
  EXPECT_EQ(scaled.final_scale, opts.scaler.init_scale * 0.5f);
}

// Satellite: inject-NaN fuzz mode.  Corrupt a random produced value in a
// random DAG; the guarded run must blame exactly that value first, every
// reported anomaly must sit inside its contamination cone (no false
// positives), and an unguarded run must stay silent.
TEST(NumericsFuzz, BlameAlwaysLandsInsideTheContaminationCone) {
  graph::Runtime rt;
  int corrupted_runs = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const graph::RandomDag dag = graph::random_dag(seed);
    const graph::ValueId target =
        graph::pick_corruption_target(dag.graph, seed);
    if (target == graph::kInvalidValue) continue;
    const auto feeds = graph::random_feeds(dag.graph, seed);

    RunOptions guarded;
    guarded.guard = NumericsPolicy::kWarn;
    // Skip seeds that are organically anomalous even without corruption.
    if (!rt.run(dag.graph, feeds, guarded).anomalies.empty()) continue;

    RunOptions corrupted = guarded;
    corrupted.corrupt_value = target;
    const graph::ProfileResult r = rt.run(dag.graph, feeds, corrupted);
    ASSERT_FALSE(r.anomalies.empty()) << "seed " << seed << ": missed";
    EXPECT_EQ(r.anomalies.front().kind, NumericsAnomaly::Kind::kSdc)
        << "seed " << seed;
    EXPECT_EQ(r.anomalies.front().value, target) << "seed " << seed;

    const std::vector<graph::ValueId> cone =
        graph::contamination_cone(dag.graph, target);
    EXPECT_TRUE(std::binary_search(cone.begin(), cone.end(), target));
    for (const NumericsAnomaly& a : r.anomalies) {
      EXPECT_TRUE(std::binary_search(cone.begin(), cone.end(), a.value))
          << "seed " << seed << ": anomaly blames value " << a.value
          << " outside the contamination cone of " << target;
    }

    RunOptions off = corrupted;
    off.guard = NumericsPolicy::kOff;
    EXPECT_TRUE(rt.run(dag.graph, feeds, off).anomalies.empty())
        << "seed " << seed;
    ++corrupted_runs;
  }
  EXPECT_GE(corrupted_runs, 15) << "fuzz corpus too thin to mean anything";
}

}  // namespace
}  // namespace gaudi
