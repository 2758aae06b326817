// Timing mode's one path: its equivalence with functional execution, and
// what GAUDI_TIMING_ONLY does not change.
//
// A timing-mode run samples every TPC kernel over a cost context that
// computes nothing; the contract under test is that it reports exactly what
// full functional execution does — byte-identical trace and engine
// summaries — over 50 seeded random DAGs, and that its costs never read the
// execution seed.  GAUDI_TIMING_ONLY is a serving knob: it must leave a
// graph run, guard spans included, byte-identical, and no graph run adds a
// makespan entry to the TimingMemo.  The memo's makespan entries persist
// across processes through GAUDI_MEMO_FILE.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "graph/fingerprint.hpp"
#include "graph/random_graph.hpp"
#include "graph/runtime.hpp"
#include "graph/timing_memo.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "sim/error.hpp"
#include "sim/fault.hpp"
#include "sim/thread_pool.hpp"
#include "tensor/shape.hpp"

namespace gaudi::graph {
namespace {

sim::ChipConfig chip() { return sim::ChipConfig::hls1(); }

Graph small_graph() {
  Graph g;
  const ValueId a = g.input(tensor::Shape{{64, 64}}, tensor::DType::F32, "a");
  const ValueId b = g.param(tensor::Shape{{64, 64}}, "b");
  g.mark_output(g.relu(g.matmul(a, b)));
  return g;
}

/// Everything a timing run promises to reproduce byte-for-byte.
std::string observable(const ProfileResult& r) {
  return r.trace.to_chrome_json() + "\nmakespan_ps=" +
         std::to_string(r.makespan.ps()) + "\n" +
         core::to_report(core::summarize(r.trace), "observable");
}

// --- Chip fingerprint ------------------------------------------------------

TEST(Fingerprint, ChipConfigChangesTheKey) {
  sim::ChipConfig a = chip();
  sim::ChipConfig b = chip();
  b.mme.clock_hz = a.mme.clock_hz * 2.0;
  EXPECT_NE(chip_fingerprint(a), chip_fingerprint(b));
  EXPECT_EQ(chip_fingerprint(a), chip_fingerprint(chip()));
}

// --- Timing mode ------------------------------------------------------------

RunOptions timing_run() {
  RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  return opts;
}

/// Every NodeExec field, one node per line.
std::string execs_text(const ProfileResult& r) {
  std::ostringstream os;
  for (const NodeExec& e : r.node_execs) {
    os << static_cast<int>(e.engine) << ' ' << e.duration.ps() << ' '
       << e.flops << ' ' << e.bytes << ' ' << e.label << ' '
       << e.guard_time.ps() << ' ' << e.has_stats << ' '
       << e.stats.to_string() << '\n';
  }
  return os.str();
}

TEST(TimingOnly, TimingModeCostsDoNotDependOnTheSeed) {
  // Timing-mode cycles must not read the RNG stream.  The tiny GPT training
  // step covers the RNG-drawing dropout kernel plus embedding,
  // cross-entropy, layernorm and Adam.
  Graph g;
  nn::LmConfig cfg = nn::LmConfig::tiny(nn::LmArch::kGpt2);
  cfg.dropout_p = 0.1f;
  const nn::LanguageModel model = nn::build_language_model(g, cfg);
  nn::OptimizerConfig adam;
  adam.kind = nn::OptimizerKind::kAdam;
  (void)nn::append_optimizer(g, model, adam);
  for (const OpKind kind :
       {OpKind::kDropout, OpKind::kEmbedding, OpKind::kCrossEntropyMean,
        OpKind::kLayerNorm, OpKind::kAdamUpdate}) {
    bool found = false;
    for (const Node& n : g.nodes()) found = found || n.kind == kind;
    ASSERT_TRUE(found) << op_kind_name(kind);
  }

  Runtime rt(chip());
  const CompiledGraph cg = rt.compile(g);
  std::vector<ProfileResult> runs;
  for (const std::uint64_t seed : {1ull, 0xDEADBEEFull}) {
    RunOptions opts = timing_run();
    opts.seed = seed;
    runs.push_back(rt.run(cg, {}, opts));
  }
  EXPECT_EQ(execs_text(runs[0]), execs_text(runs[1]));
  EXPECT_EQ(runs[0].trace.to_chrome_json(), runs[1].trace.to_chrome_json());
}

// --- GAUDI_TIMING_ONLY -----------------------------------------------------
//
// The variable is the serving pricer's default (serve/scheduler.hpp).  A
// graph run has one timing path, so it must not change one: not its guard
// spans, and not the memo's makespan entries.

TEST(TimingOnly, EnvLeavesAGuardedTimingRunByteIdentical) {
  Runtime rt(chip());
  const CompiledGraph cg = rt.compile(small_graph());
  RunOptions opts = timing_run();
  opts.guard = sim::NumericsPolicy::kWarn;
  TimingMemo::global().clear();
  ASSERT_EQ(::unsetenv("GAUDI_TIMING_ONLY"), 0);
  const ProfileResult plain = rt.run(cg, {}, opts);
  ASSERT_EQ(::setenv("GAUDI_TIMING_ONLY", "1", 1), 0);
  const ProfileResult under_env = rt.run(cg, {}, opts);
  ASSERT_EQ(::unsetenv("GAUDI_TIMING_ONLY"), 0);

  sim::SimTime guard_time{};
  for (const NodeExec& e : plain.node_execs) guard_time += e.guard_time;
  ASSERT_GT(guard_time, sim::SimTime::zero()) << "the guard billed nothing";
  EXPECT_EQ(observable(plain), observable(under_env));
  EXPECT_EQ(execs_text(plain), execs_text(under_env));

  // Faults act only in the scheduler; a fault-injected graph run adds no
  // makespan entry either.
  const sim::FaultInjector faults{0xFA517, sim::FaultProfile::stress()};
  RunOptions faulted = timing_run();
  faulted.faults = &faults;
  (void)rt.run(cg, {}, faulted);
  EXPECT_EQ(TimingMemo::global().size(), 0u);
}

// --- Fuzz: equivalence with full functional execution ----------------------

TEST(TimingOnlyFuzz, MatchesFunctionalTraceAndSummariesOver50Seeds) {
  Runtime rt(chip());
  const sim::FaultInjector no_faults{};  // neutralizes GAUDI_FAULTS lanes
  CompileOptions fused;
  fused.fuse_elementwise = true;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const RandomDag dag = random_dag(seed);
    const CompiledGraph cg = rt.compile(dag.graph);

    RunOptions functional;
    functional.mode = tpc::ExecMode::kFunctional;
    // Guard sweeps add kGuard spans; pin the guard off here and in the
    // timing runs so the comparison is mode-to-mode even under a
    // GAUDI_GUARD CI lane.
    functional.guard = sim::NumericsPolicy::kOff;
    functional.faults = &no_faults;
    const ProfileResult full =
        rt.run(cg, random_feeds(dag.graph, seed), functional);

    // Validated timing mode, unfused and fused; the unfused run must match
    // the functional one byte for byte.
    const CompiledGraph fused_cg = rt.compile(dag.graph, fused);
    for (const CompiledGraph* compiled : {&cg, &fused_cg}) {
      RunOptions timing = timing_run();
      timing.guard = sim::NumericsPolicy::kOff;
      timing.faults = &no_faults;
      timing.validate = true;
      const ProfileResult t = rt.run(*compiled, {}, timing);
      if (compiled == &cg) {
        ASSERT_EQ(observable(full), observable(t)) << "seed " << seed;
        ASSERT_EQ(t.node_execs.size(), full.node_execs.size())
            << "seed " << seed;
      }
    }
  }
}

// --- Parallel replicas -----------------------------------------------------

TEST(TimingOnly, ParallelReplicasMatchSerialMerge) {
  constexpr std::uint64_t kBase = 0x5EED00;
  constexpr std::size_t kReplicas = 12;

  const auto run_one = [](std::uint64_t seed) {
    Runtime rt(chip());
    const RandomDag dag = random_dag(seed);
    return observable(rt.run(dag.graph, {}, timing_run()));
  };

  std::vector<std::string> serial(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) {
    serial[i] = run_one(kBase + i);
  }

  // The same runs spread over a pool: a timing run shares no state with
  // another, so the in-order merge is byte-identical to the serial pass.
  std::vector<std::string> parallel(kReplicas);
  sim::ThreadPool pool;
  pool.parallel_for(kReplicas,
                    [&](std::size_t i) { parallel[i] = run_one(kBase + i); });
  for (std::size_t i = 0; i < kReplicas; ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "replica " << i;
  }
}

// --- Cross-process persistence ---------------------------------------------
//
// The makespan entries are pure functions of their keys, so a
// sweep can deposit them on disk (GAUDI_MEMO_FILE) and the next process
// warm-starts.  The file is checksummed and damage maps onto the checkpoint
// error hierarchy, same discipline as scan_snapshots.

std::string memo_path(const char* name) {
  return ::testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::trunc);
  os << text;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(MemoPersistence, SaveLoadRoundTripsAndMergesWithExistingKeysWinning) {
  const std::string path = memo_path("memo_roundtrip.txt");
  TimingMemo& memo = TimingMemo::global();
  memo.clear();
  memo.insert_time("decode-step:aaaa", sim::SimTime::from_ps(123));
  memo.insert_time("prefill-chunk:bbbb", sim::SimTime::from_ps(456));
  EXPECT_EQ(memo.save_times(path), 2u);

  memo.clear();
  memo.insert_time("decode-step:aaaa", sim::SimTime::from_ps(999));  // winner
  EXPECT_EQ(memo.load_times(path), 2u);
  sim::SimTime t{};
  ASSERT_TRUE(memo.find_time("decode-step:aaaa", &t));
  EXPECT_EQ(t.ps(), 999);  // resident entry beats the loaded one
  ASSERT_TRUE(memo.find_time("prefill-chunk:bbbb", &t));
  EXPECT_EQ(t.ps(), 456);
  memo.clear();
  std::remove(path.c_str());
}

TEST(MemoPersistence, RejectsDamageWithTypedCheckpointErrors) {
  const std::string path = memo_path("memo_damage.txt");
  TimingMemo& memo = TimingMemo::global();
  memo.clear();
  memo.insert_time("decode-step:cccc", sim::SimTime::from_ps(42));
  ASSERT_EQ(memo.save_times(path), 1u);
  const std::string good = read_file(path);

  // Foreign magic: a file from some other tool (or a future format).
  write_file(path, "gaudi-timing-memo v9\ncount 0\nchecksum 0\n");
  EXPECT_THROW((void)memo.load_times(path), sim::CheckpointVersionSkew);

  // Truncation: the checksum trailer (written last) is missing.
  write_file(path, good.substr(0, good.rfind("checksum ")));
  EXPECT_THROW((void)memo.load_times(path), sim::CheckpointTruncated);

  // Bit rot: flip one digit inside an entry, trailer now disagrees.
  std::string rotten = good;
  rotten.replace(rotten.find(" 42"), 3, " 43");
  write_file(path, rotten);
  EXPECT_THROW((void)memo.load_times(path), sim::CheckpointChecksumMismatch);

  // The pristine bytes still load after all that rejection.
  write_file(path, good);
  memo.clear();
  EXPECT_EQ(memo.load_times(path), 1u);
  memo.clear();
  std::remove(path.c_str());
}

TEST(MemoPersistence, EnvHelperReflectsGaudiMemoFile) {
  ASSERT_EQ(::unsetenv("GAUDI_MEMO_FILE"), 0);
  EXPECT_TRUE(memo_file_from_env().empty());
  EXPECT_EQ(save_memo_to_env_file(), 0u);  // unset: a quiet no-op
  const std::string path = memo_path("memo_env.txt");
  ASSERT_EQ(::setenv("GAUDI_MEMO_FILE", path.c_str(), 1), 0);
  EXPECT_EQ(memo_file_from_env(), path);
  TimingMemo& memo = TimingMemo::global();
  memo.clear();
  memo.insert_time("decode-step:dddd", sim::SimTime::from_ps(7));
  EXPECT_EQ(save_memo_to_env_file(), 1u);
  memo.clear();
  EXPECT_EQ(memo.load_times(path), 1u);
  ASSERT_EQ(::unsetenv("GAUDI_MEMO_FILE"), 0);
  memo.clear();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gaudi::graph
