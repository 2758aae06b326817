// Integration tests: the paper's tables and figures as executable
// assertions.  Each test pins the qualitative claim the corresponding bench
// binary prints (see EXPERIMENTS.md for the measured-vs-paper record).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/advisor.hpp"
#include "core/experiments.hpp"
#include "core/table.hpp"

namespace gaudi::core {
namespace {

const sim::ChipConfig& chip() {
  static const sim::ChipConfig cfg = sim::ChipConfig::hls1();
  return cfg;
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

TEST(Table1, MappingMatchesPaperExactly) {
  const auto rows = run_op_mapping_probe();
  ASSERT_EQ(rows.size(), 9u);
  for (const auto& r : rows) {
    if (r.operation == "torch.matmul") {
      EXPECT_EQ(r.engine, graph::Engine::kMme) << r.operation;
    } else {
      EXPECT_EQ(r.engine, graph::Engine::kTpc) << r.operation;
    }
  }
  const std::string table = format_op_mapping(rows);
  EXPECT_NE(table.find("torch.matmul"), std::string::npos);
  EXPECT_NE(table.find("MME"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

TEST(Table2, TflopsAndSpeedupShapesMatchPaper) {
  const auto rows = run_mme_vs_tpc(chip(), {128, 256, 512, 1024, 2048});
  ASSERT_EQ(rows.size(), 5u);

  // MME ramps to ~14.6 TFLOPS, saturating by size 512 (paper: 2.35 -> 14.59).
  EXPECT_NEAR(rows[0].f_mme_tflops, 2.35, 0.5);
  EXPECT_GT(rows[2].f_mme_tflops, 12.0);
  EXPECT_NEAR(rows[4].f_mme_tflops, 14.59, 0.3);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].f_mme_tflops, rows[i - 1].f_mme_tflops);
  }

  // TPC is flat around ~2 TFLOPS (paper: 1.86 -> 2.19).
  EXPECT_NEAR(rows[0].f_tpc_tflops, 1.86, 0.3);
  EXPECT_NEAR(rows[4].f_tpc_tflops, 2.19, 0.15);

  // Speedup grows from ~1.3 and saturates near ~6.6 (paper: 1.3 -> 6.6).
  EXPECT_GT(rows[0].speedup, 1.0);
  EXPECT_LT(rows[0].speedup, 2.0);
  EXPECT_NEAR(rows[4].speedup, 6.6, 0.5);
  // The paper's headline: TPC compute is up to ~7x slower than MME.
  for (const auto& r : rows) EXPECT_LT(r.speedup, 7.5);
}

TEST(Table2, TimesConsistentWithTflops) {
  const auto rows = run_mme_vs_tpc(chip(), {256});
  const double flops = 2.0 * 64 * 256.0 * 256.0 * 256.0;
  EXPECT_NEAR(rows[0].f_mme_tflops,
              flops / (rows[0].t_mme_ms * 1e-3) * 1e-12, 0.01);
  EXPECT_NEAR(rows[0].speedup, rows[0].t_tpc_ms / rows[0].t_mme_ms, 1e-6);
}

// ---------------------------------------------------------------------------
// Figures 4-6: attention mechanisms
// ---------------------------------------------------------------------------

struct LayerProfiles {
  LayerProfile softmax, linear, performer;
};

const LayerProfiles& profiles() {
  static const LayerProfiles p = [] {
    LayerProfiles r;
    LayerExperiment e;
    e.attention.kind = nn::AttentionKind::kSoftmax;
    r.softmax = run_layer_profile(e, chip());
    e.attention.kind = nn::AttentionKind::kLinear;
    r.linear = run_layer_profile(e, chip());
    e.attention.kind = nn::AttentionKind::kPerformer;
    r.performer = run_layer_profile(e, chip());
    return r;
  }();
  return p;
}

TEST(Fig4, SoftmaxDominatesTpcTime) {
  // Paper: "the running time of softmax exceeds 80% of the total running
  // time" of the TPC region.
  EXPECT_GT(profiles().softmax.summary.softmax_share_of_tpc, 0.80);
}

TEST(Fig4, MmeHasManyBlankAreas) {
  const auto& s = profiles().softmax.summary;
  EXPECT_GT(s.mme_idle_fraction, 0.35);
  EXPECT_GE(s.mme_gap_count, 3u);
  EXPECT_GT(s.mme_longest_gap.ms(), 10.0);
}

TEST(Fig4, FitsInHbmAtPaperScale) {
  // batch 128 x seq 2048 softmax attention just fits the 32 GB device.
  EXPECT_LE(profiles().softmax.hbm_peak_bytes, 32ull << 30);
  EXPECT_GT(profiles().softmax.hbm_peak_bytes, 8ull << 30);
}

TEST(Fig5, LinearAttentionIsSeveralTimesFaster) {
  // Paper: ~6x; simulator reproduces ~4-6x (see EXPERIMENTS.md).
  const double speedup = profiles().softmax.summary.makespan.seconds() /
                         profiles().linear.summary.makespan.seconds();
  EXPECT_GT(speedup, 3.5);
  EXPECT_LT(speedup, 8.0);
  // Paper reports ~30 ms for the linear Transformer layer.
  EXPECT_NEAR(profiles().linear.summary.makespan.ms(), 30.0, 12.0);
}

TEST(Fig5, MmeWellUtilizedComparedToSoftmax) {
  // Paper: "there are not many blank areas in the MME operating area".
  EXPECT_LT(profiles().linear.summary.mme_idle_fraction,
            profiles().softmax.summary.mme_idle_fraction - 0.10);
  EXPECT_EQ(profiles().linear.summary.softmax_share_of_tpc, 0.0);
}

TEST(Fig6, PerformerBetweenLinearAndSoftmax) {
  // Paper: softmax ~2x slower than Performer; Performer slower than linear
  // (80 ms vs 30 ms).
  const double vs_softmax = profiles().softmax.summary.makespan.seconds() /
                            profiles().performer.summary.makespan.seconds();
  EXPECT_GT(vs_softmax, 1.5);
  EXPECT_LT(vs_softmax, 3.5);
  EXPECT_GT(profiles().performer.summary.makespan.seconds(),
            profiles().linear.summary.makespan.seconds());
  EXPECT_NEAR(profiles().performer.summary.makespan.ms(), 80.0, 20.0);
}

TEST(Fig6, TpcBusyWithExponentials) {
  // Paper: "the TPC is busy with exponential operations" during the blank
  // area.
  EXPECT_GT(profiles().performer.summary.exp_share_of_tpc, 0.4);
}

TEST(Fig6, OverlapSchedulerRecoversSomeBlankArea) {
  LayerExperiment e;
  e.attention.kind = nn::AttentionKind::kPerformer;
  e.policy = graph::SchedulePolicy::kOverlap;
  const auto overlapped = run_layer_profile(e, chip());
  EXPECT_LT(overlapped.summary.makespan,
            profiles().performer.summary.makespan);
}

// ---------------------------------------------------------------------------
// Figure 7: feature-map activations
// ---------------------------------------------------------------------------

TEST(Fig7, ActivationOrderingMatchesPaper) {
  auto run_act = [&](nn::Activation act) {
    LayerExperiment e;
    e.attention.kind = nn::AttentionKind::kLinear;
    e.attention.feature_map = act;
    return run_layer_profile(e, chip());
  };
  const auto relu = run_act(nn::Activation::kRelu);
  const auto leaky = run_act(nn::Activation::kLeakyRelu);
  const auto gelu = run_act(nn::Activation::kGelu);
  const auto glu = run_act(nn::Activation::kGlu);

  // ReLU / LeakyReLU / GELU within a few percent of each other.
  const double base = relu.summary.makespan.seconds();
  EXPECT_NEAR(leaky.summary.makespan.seconds() / base, 1.0, 0.05);
  EXPECT_NEAR(gelu.summary.makespan.seconds() / base, 1.0, 0.08);

  // GLU is the worst (paper: +8%; simulator overshoots, direction holds).
  EXPECT_GT(glu.summary.makespan.seconds(), 1.05 * base);
  EXPECT_GT(glu.summary.makespan.seconds(),
            gelu.summary.makespan.seconds());

  // ... and it is the only one paying a compilation stall.
  EXPECT_GT(glu.summary.host_busy, sim::SimTime::zero());
  EXPECT_EQ(relu.summary.host_busy, sim::SimTime::zero());
  EXPECT_EQ(gelu.summary.host_busy, sim::SimTime::zero());
}

// ---------------------------------------------------------------------------
// Figures 8-9: end-to-end language models
// ---------------------------------------------------------------------------

TEST(Fig8and9, LlmTrainingStepsShowImbalanceAndGaps) {
  for (const auto arch : {nn::LmArch::kGpt2, nn::LmArch::kBert}) {
    const nn::LmConfig cfg = arch == nn::LmArch::kGpt2 ? nn::LmConfig::gpt2_paper()
                                                       : nn::LmConfig::bert_paper();
    const LlmProfile p =
        run_llm_profile(cfg, graph::SchedulePolicy::kBarrier, chip());
    // Paper: "many blank areas in the MME operating area" and unbalanced
    // MME/TPC workload with no overlap.
    EXPECT_GE(p.summary.mme_gap_count, 10u) << nn::lm_arch_name(arch);
    EXPECT_GT(p.summary.mme_idle_fraction, 0.15) << nn::lm_arch_name(arch);
    EXPECT_GT(p.summary.engine_imbalance, 0.3) << nn::lm_arch_name(arch);
    // Both engines genuinely work (training step touches everything).
    EXPECT_GT(p.summary.tpc_busy.ms(), 10.0);
    EXPECT_GT(p.summary.mme_busy.ms(), 10.0);
    // Paper §3.1/3.4: fits the 32 GB device at batch 8 (that is why the
    // batch is 8).
    EXPECT_LE(p.hbm_peak_bytes, 32ull << 30);
  }
}

TEST(Fig8and9, GptCostsMoreThanBertPerStep) {
  // Same dims, but GPT's vocabulary (50257 vs 30522) makes its LM head —
  // the dominant GEMM — proportionally more expensive.
  const auto gpt = run_llm_profile(nn::LmConfig::gpt2_paper(),
                                   graph::SchedulePolicy::kBarrier, chip());
  const auto bert = run_llm_profile(nn::LmConfig::bert_paper(),
                                    graph::SchedulePolicy::kBarrier, chip());
  EXPECT_GT(gpt.summary.makespan, bert.summary.makespan);
  EXPECT_GT(gpt.param_count, bert.param_count);
}

TEST(Fig8and9, MemoryLimitForcesSmallBatch) {
  // Doubling the batch to 32 at seq 2048 should blow past 32 GB — the
  // paper's stated reason for batch 8.
  nn::LmConfig cfg = nn::LmConfig::gpt2_paper();
  cfg.batch = 32;
  EXPECT_THROW(
      run_llm_profile(cfg, graph::SchedulePolicy::kBarrier, chip()),
      sim::ResourceExhausted);
}

// ---------------------------------------------------------------------------
// Long sequences (§3.3 motivation) and scheduler ablation (§4)
// ---------------------------------------------------------------------------

TEST(LongSequences, SoftmaxDegradesSuperlinearlyAtConstantTokens) {
  auto total_ms = [&](std::int64_t seq) {
    LayerExperiment e;
    e.seq_len = seq;
    e.batch = 128 * 2048 / seq;
    e.attention.kind = nn::AttentionKind::kSoftmax;
    return run_layer_profile(e, chip()).summary.makespan.ms();
  };
  const double t512 = total_ms(512);
  const double t2048 = total_ms(2048);
  // 4x the sequence at constant tokens: O(N^2) terms grow 4x, so the total
  // must grow clearly superlinearly in N... but sublinearly vs pure O(N^2).
  EXPECT_GT(t2048 / t512, 2.0);

  auto linear_ms = [&](std::int64_t seq) {
    LayerExperiment e;
    e.seq_len = seq;
    e.batch = 128 * 2048 / seq;
    e.attention.kind = nn::AttentionKind::kLinear;
    return run_layer_profile(e, chip()).summary.makespan.ms();
  };
  // Linear attention is ~flat at constant token count.
  EXPECT_NEAR(linear_ms(2048) / linear_ms(512), 1.0, 0.25);
}

TEST(Ablation, OverlapSchedulerNeverSlower) {
  for (const auto kind : {nn::AttentionKind::kSoftmax, nn::AttentionKind::kLinear,
                          nn::AttentionKind::kPerformer}) {
    LayerExperiment e;
    e.attention.kind = kind;
    const auto barrier = run_layer_profile(e, chip());
    e.policy = graph::SchedulePolicy::kOverlap;
    const auto overlap = run_layer_profile(e, chip());
    EXPECT_LE(overlap.summary.makespan, barrier.summary.makespan)
        << nn::attention_kind_name(kind);
  }
}

// ---------------------------------------------------------------------------
// Advisor (§4 insights)
// ---------------------------------------------------------------------------

TEST(Advisor, FlagsSoftmaxBottleneckOnFig4) {
  AdvisorInput in;
  in.summary = profiles().softmax.summary;
  const auto findings = advise(in);
  bool softmax_finding = false, matmul_finding = false;
  for (const auto& f : findings) {
    softmax_finding |= f.title.find("Softmax") != std::string::npos;
    matmul_finding |= f.insight == 3;
  }
  EXPECT_TRUE(softmax_finding);
  EXPECT_TRUE(matmul_finding);
  EXPECT_FALSE(format_findings(findings).empty());
}

TEST(Advisor, FlagsRecompileForGlu) {
  LayerExperiment e;
  e.attention.kind = nn::AttentionKind::kLinear;
  e.attention.feature_map = nn::Activation::kGlu;
  AdvisorInput in;
  in.summary = run_layer_profile(e, chip()).summary;
  bool recompile = false;
  for (const auto& f : advise(in)) recompile |= f.insight == 2;
  EXPECT_TRUE(recompile);
}

TEST(Advisor, FlagsMissedOverlapWhenGainIsLarge) {
  AdvisorInput in;
  in.summary = profiles().softmax.summary;
  in.overlap_makespan = sim::SimTime::from_ms(
      profiles().softmax.summary.makespan.ms() * 0.5);
  bool overlap_finding = false;
  for (const auto& f : advise(in)) overlap_finding |= f.insight == 1;
  EXPECT_TRUE(overlap_finding);
}

TEST(Advisor, QuietOnBalancedTrace) {
  TraceSummary s;
  s.makespan = sim::SimTime::from_ms(10.0);
  s.mme_busy = sim::SimTime::from_ms(9.0);
  s.tpc_busy = sim::SimTime::from_ms(8.5);
  s.mme_utilization = 0.9;
  s.mme_idle_fraction = 0.1;
  AdvisorInput in;
  in.summary = s;
  EXPECT_TRUE(advise(in).empty());
}

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

TEST(Reports, TextTableRendersAligned) {
  TextTable t({"A", "Bee"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| A   | Bee |"), std::string::npos);
  EXPECT_THROW(t.add_row({"only one"}), sim::InvalidArgument);
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
}

TEST(Reports, DegenerateRatiosRenderAsNa) {
  // Ratios over a zero-duration trace are undefined: every renderer must
  // say "n/a", never "nan"/"inf" (and never cast NaN to int, which is UB).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(TextTable::num(nan), "n/a");
  EXPECT_EQ(TextTable::num(std::numeric_limits<double>::infinity()), "n/a");
  EXPECT_EQ(pct(nan), "n/a");
  EXPECT_EQ(pct(0.425), "43%");

  const graph::Trace empty;
  const TraceSummary s = summarize(empty);
  EXPECT_TRUE(std::isnan(s.mme_utilization));
  EXPECT_TRUE(std::isnan(s.softmax_share_of_tpc));
  EXPECT_TRUE(std::isnan(s.engine_imbalance));
  const std::string report = to_report(s, "empty");
  EXPECT_NE(report.find("n/a util"), std::string::npos);
  EXPECT_EQ(report.find("nan"), std::string::npos);
  EXPECT_EQ(report.find("inf"), std::string::npos);
}

TEST(Reports, SummaryReportMentionsKeyMetrics) {
  const std::string report = to_report(profiles().softmax.summary, "Fig 4");
  EXPECT_NE(report.find("Fig 4"), std::string::npos);
  EXPECT_NE(report.find("MME busy"), std::string::npos);
  EXPECT_NE(report.find("softmax / TPC"), std::string::npos);
}

}  // namespace
}  // namespace gaudi::core
