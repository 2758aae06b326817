// Cross-feature integration tests: features composed the way a real user
// composes them — fusion + optimizer + scheduler policies on full models,
// artifact outputs (Chrome trace, HTML, DOT), and the determinism of a
// reproduced figure.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/cli.hpp"
#include "core/experiments.hpp"
#include "graph/printer.hpp"
#include "graph/runtime.hpp"
#include "nn/decode.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"

namespace gaudi {
namespace {

namespace ops = gaudi::tensor::ops;
using graph::Graph;

const sim::ChipConfig& chip() {
  static const sim::ChipConfig cfg = sim::ChipConfig::hls1();
  return cfg;
}

TEST(Integration, FullTrainingPipelineWithAllFeatures) {
  // Model + loss + backward + Adam, fused, overlap-scheduled, in timing
  // mode at paper scale: the maximal composition must run clean and be
  // faster than (or equal to) the plain barrier schedule.
  Graph g;
  const nn::LmConfig cfg = nn::LmConfig::gpt2_paper();
  const nn::LanguageModel model = nn::build_language_model(g, cfg);
  nn::OptimizerConfig ocfg;
  ocfg.kind = nn::OptimizerKind::kAdam;
  (void)nn::append_optimizer(g, model, ocfg);

  graph::Runtime rt(chip());
  graph::RunOptions plain;
  plain.mode = tpc::ExecMode::kTiming;
  const auto base = rt.run(g, {}, plain);

  graph::CompileOptions fused;
  fused.fuse_elementwise = true;
  graph::RunOptions tuned = plain;
  tuned.policy = graph::SchedulePolicy::kOverlap;
  const auto best = rt.run(rt.compile(g, fused), {}, tuned);

  EXPECT_LE(best.makespan, base.makespan);
  EXPECT_LE(best.hbm_peak_bytes, base.hbm_peak_bytes);
  EXPECT_GT(best.trace.busy_matching("adam", graph::Engine::kTpc),
            sim::SimTime::zero());
}

TEST(Integration, FunctionalOutputsInvariantToPolicyAndFusion) {
  // Scheduling and fusion change time, never numerics.
  Graph g;
  nn::LmConfig cfg = nn::LmConfig::tiny(nn::LmArch::kBert);
  cfg.n_layers = 1;
  const nn::LanguageModel model = nn::build_language_model(g, cfg);
  auto feeds = model.params.init_feeds(g);
  feeds.emplace(model.token_ids,
                tensor::Tensor::random_tokens(
                    tensor::Shape{{cfg.batch, cfg.seq_len}},
                    sim::CounterRng{5}, cfg.vocab));
  feeds.emplace(model.targets,
                tensor::Tensor::random_tokens(tensor::Shape{{cfg.tokens()}},
                                              sim::CounterRng{6}, cfg.vocab));

  graph::Runtime rt(chip());
  std::vector<double> losses;
  for (const bool fuse : {false, true}) {
    graph::CompileOptions copts;
    copts.fuse_elementwise = fuse;
    const graph::CompiledGraph cg = rt.compile(g, copts);
    for (const auto policy :
         {graph::SchedulePolicy::kBarrier, graph::SchedulePolicy::kOverlap}) {
      graph::RunOptions opts;
      opts.mode = tpc::ExecMode::kFunctional;
      opts.policy = policy;
      losses.push_back(rt.run(cg, feeds, opts).outputs.at(model.loss).at(0));
    }
  }
  for (std::size_t i = 1; i < losses.size(); ++i) {
    EXPECT_EQ(losses[i], losses[0]);
  }
}

TEST(Integration, CliWritesAllArtifacts) {
  const std::string trace = "itest.trace.json";
  const std::string html = "itest.html";
  const std::string dot = "itest.dot";
  std::ostringstream out;
  const int rc = core::run_cli(
      {"gaudisim_cli", "profile-model", "--arch", "bert", "--seq", "128",
       "--batch", "2", "--layers", "1", "--trace", trace, "--html", html,
       "--dot", dot},
      out);
  EXPECT_EQ(rc, 0);

  auto file_starts_with = [](const std::string& path, const std::string& prefix) {
    std::ifstream f(path);
    if (!f.good()) return false;
    std::string head(prefix.size(), '\0');
    f.read(head.data(), static_cast<std::streamsize>(prefix.size()));
    return head == prefix;
  };
  EXPECT_TRUE(file_starts_with(trace, "{\"traceEvents\""));
  EXPECT_TRUE(file_starts_with(html, "<!DOCTYPE html>"));
  EXPECT_TRUE(file_starts_with(dot, "digraph"));
  std::remove(trace.c_str());
  std::remove(html.c_str());
  std::remove(dot.c_str());
}

TEST(Integration, BaselineRegressionWorkflowOnFig4) {
  // Record the Fig 4 reproduction, rerun it, compare: the simulator is
  // deterministic, so the rerun's Chrome trace and report match the first
  // run's byte for byte (the exact BENCH lines rely on the same property).
  core::LayerExperiment exp;
  exp.attention.kind = nn::AttentionKind::kSoftmax;
  const auto first = core::run_layer_profile(exp, chip());
  const auto second = core::run_layer_profile(exp, chip());
  EXPECT_FALSE(first.trace.events().empty());
  EXPECT_EQ(first.trace.to_chrome_json(), second.trace.to_chrome_json());
  EXPECT_EQ(core::to_report(first.summary, "Fig 4"),
            core::to_report(second.summary, "Fig 4"));
}

TEST(Integration, DecodeGraphExportsAndProfilesUnderFusion) {
  Graph g;
  nn::DecodeConfig cfg = nn::DecodeConfig::gpt2_paper();
  cfg.batch = 4;
  (void)nn::build_gpt_decode_step(g, cfg, 1024);

  const std::string dot = graph::to_dot(g);
  EXPECT_NE(dot.find("cache_k_append"), std::string::npos);
  EXPECT_NE(dot.find("decode.cache_k0"), std::string::npos);

  graph::Runtime rt(chip());
  graph::CompileOptions copts;
  copts.fuse_elementwise = true;
  graph::RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.policy = graph::SchedulePolicy::kOverlap;
  const auto result = rt.run(rt.compile(g, copts), {}, opts);
  EXPECT_GT(result.makespan, sim::SimTime::zero());
  EXPECT_GT(result.trace.busy_matching("cache_k_append", graph::Engine::kTpc),
            sim::SimTime::zero());
}

TEST(Integration, GraphErrorPathsSurfaceCleanly) {
  Graph g;
  const auto a = g.input(tensor::Shape{{2, 3, 4}}, tensor::DType::F32, "a");
  const auto b = g.input(tensor::Shape{{2, 3, 5}}, tensor::DType::F32, "b");
  EXPECT_THROW(g.concat_rows(a, b), sim::InvalidArgument);    // cols differ
  EXPECT_THROW(g.slice_rows(a, 2, 5), sim::InvalidArgument);  // out of range
  EXPECT_THROW(g.swap_axes12(g.input(tensor::Shape{{2, 3}}, tensor::DType::F32,
                                     "r2")),
               sim::InvalidArgument);                          // needs rank 4
  EXPECT_THROW(g.cast(a, tensor::DType::F32), sim::InvalidArgument);
  EXPECT_THROW(g.glu(b), sim::InvalidArgument);               // odd trailing
}

}  // namespace
}  // namespace gaudi
