// Roofline analysis and graph-printer tests.
#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "core/roofline.hpp"
#include "graph/printer.hpp"
#include "graph/runtime.hpp"

namespace gaudi::core {
namespace {

using graph::Engine;
using tensor::DType;
using tensor::Shape;

const sim::ChipConfig& chip() {
  static const sim::ChipConfig cfg = sim::ChipConfig::hls1();
  return cfg;
}

TEST(Roofline, MachineBalanceOrdersEngines) {
  // The MME needs ~7x more arithmetic intensity than the TPC to stay busy.
  const double mme = machine_balance(chip(), Engine::kMme);
  const double tpc = machine_balance(chip(), Engine::kTpc);
  EXPECT_NEAR(mme, 14.6, 0.3);
  EXPECT_NEAR(tpc, 2.2, 0.2);
  EXPECT_THROW((void)machine_balance(chip(), Engine::kDma), sim::InvalidArgument);
}

TEST(Roofline, ClassifiesSoftmaxMemoryBoundAndGemmComputeBound) {
  LayerExperiment exp;
  exp.attention.kind = nn::AttentionKind::kSoftmax;
  const auto profile = run_layer_profile(exp, chip());
  const auto points = roofline(profile.trace, chip());
  ASSERT_FALSE(points.empty());

  bool saw_softmax = false, saw_gemm = false;
  for (const auto& p : points) {
    if (p.name.find("softmax") != std::string::npos) {
      saw_softmax = true;
      EXPECT_TRUE(p.memory_bound) << p.name;
      EXPECT_LT(p.intensity, 2.0);
      EXPECT_EQ(p.engine, Engine::kTpc);
    }
    if (p.name.find("qk_t") != std::string::npos) {
      saw_gemm = true;
      EXPECT_FALSE(p.memory_bound) << p.name;
      EXPECT_GT(p.intensity, machine_balance(chip(), Engine::kMme));
      // GEMMs run near the compute roof.
      EXPECT_GT(p.roof_fraction, 0.9);
    }
  }
  EXPECT_TRUE(saw_softmax);
  EXPECT_TRUE(saw_gemm);

  // Sorted heaviest-first; at this config softmax tops the list.
  EXPECT_NE(points[0].name.find("softmax"), std::string::npos);
  const std::string table = format_roofline(points, 5);
  EXPECT_NE(table.find("memory"), std::string::npos);
  EXPECT_NE(table.find("compute"), std::string::npos);
}

TEST(Roofline, AggregatesRepeatedOps) {
  // Two layers produce two softmax ops with distinct names but the qk_t of
  // one layer aggregates its fwd occurrences into one point.
  const auto profile = run_llm_profile(nn::LmConfig::gpt2_paper(),
                                       graph::SchedulePolicy::kBarrier, chip());
  const auto points = roofline(profile.trace, chip());
  int lm_head_points = 0;
  for (const auto& p : points) {
    if (p.name == "gpt2.lm_head.matmul") ++lm_head_points;
  }
  EXPECT_EQ(lm_head_points, 1);
}

TEST(Printer, TextDumpListsNodesAndEngines) {
  graph::Graph g;
  const auto x = g.input(Shape{{4, 8}}, DType::F32, "x");
  const auto w = g.param(Shape{{8, 8}}, "weights");
  g.mark_output(g.softmax(g.matmul(x, w)));
  const std::string text = graph::to_text(g);
  EXPECT_NE(text.find("[MME] matmul"), std::string::npos);
  EXPECT_NE(text.find("[TPC] softmax"), std::string::npos);
  EXPECT_NE(text.find("[4, 8]"), std::string::npos);
}

TEST(Printer, DotExportIsWellFormed) {
  graph::Graph g;
  const auto x = g.input(Shape{{4, 8}}, DType::F32, "x");
  const auto w = g.param(Shape{{8, 8}}, "w\"eird");  // needs escaping
  g.mark_output(g.relu(g.matmul(x, w)));
  const std::string dot = graph::to_dot(g);
  EXPECT_EQ(dot.rfind("digraph", 0), 0u);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("#4e79a7"), std::string::npos);  // MME color
  EXPECT_NE(dot.find("#f28e2b"), std::string::npos);  // TPC color
  EXPECT_NE(dot.find("\\\""), std::string::npos);     // escaped quote
  EXPECT_EQ(dot.back(), '\n');
}

TEST(Printer, TraceEventsCarryBytesForCompute) {
  graph::Graph g;
  const auto x = g.input(Shape{{64, 64}}, DType::F32, "x");
  g.mark_output(g.relu(x));
  graph::Runtime rt(chip());
  graph::RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  const auto result = rt.run(g, {}, opts);
  for (const auto& e : result.trace.events()) {
    if (e.engine == Engine::kTpc) {
      EXPECT_EQ(e.bytes, 2u * 64 * 64 * 4);  // in + out
    }
  }
}

}  // namespace
}  // namespace gaudi::core
