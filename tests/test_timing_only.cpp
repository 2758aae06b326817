// Timing mode's one path: the kernel cost cache, its equivalence with
// functional execution, and what GAUDI_TIMING_ONLY does not change.
//
// A timing-mode run memoizes each TPC kernel's cost in the process-wide
// TimingMemo; the contract under test is that a run which replays memoized
// kernel costs reports exactly what a cold one does — byte-identical trace
// and engine summaries — and that the cold run matches full functional
// execution.  The fuzz section checks both over 50 seeded random
// DAGs.  GAUDI_TIMING_ONLY is a serving knob: it must leave a graph run,
// guard spans included, byte-identical.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "graph/fingerprint.hpp"
#include "graph/fusion.hpp"
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

// --- Kernel cost cache -----------------------------------------------------
//
// Timing-mode runs memoize each TPC launch's RunResult under an exact key of
// what the kernel is built from.  These tests pin what the key covers: what
// must share an entry, what must not, and the exactness cross-check that
// validated runs apply to every hit.

RunOptions timing_run() {
  RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  return opts;
}

/// Runs `g` in timing mode on `cfg` (unfused unless `fuse`).
ProfileResult run_timing(const Graph& g, const sim::ChipConfig& cfg = chip(),
                         bool fuse = false) {
  const Runtime rt(cfg);
  CompileOptions copts;
  copts.fuse_elementwise = fuse;
  return rt.run(rt.compile(g, copts), {}, timing_run());
}

/// One add -> relu -> softmax chain whose labels and value names all carry
/// `prefix`.
Graph labelled_graph(const std::string& prefix) {
  Graph g;
  const ValueId x = g.input(tensor::Shape{{64, 128}}, tensor::DType::F32,
                            prefix + "x");
  const ValueId w = g.param(tensor::Shape{{64, 128}}, prefix + "w");
  const ValueId s = g.add(x, w, prefix + "add");
  const ValueId r = g.unary(tpc::UnaryKind::kRelu, s, 1.0f, prefix + "relu");
  g.mark_output(g.softmax(r, prefix + "softmax"));
  return g;
}

TEST(KernelCostCache, LabelsAndValueNamesStayOutOfTheKey) {
  TimingMemo& memo = TimingMemo::global();
  memo.clear();
  const ProfileResult a = run_timing(labelled_graph("first."));
  const std::size_t entries = memo.kernel_entries();
  const std::uint64_t hits = memo.kernel_hits();
  EXPECT_EQ(entries, 3u);
  EXPECT_EQ(hits, 0u);

  const ProfileResult b = run_timing(labelled_graph("second."));
  EXPECT_EQ(memo.kernel_entries(), entries);
  EXPECT_EQ(memo.kernel_hits(), hits + 3);
  EXPECT_EQ(a.makespan, b.makespan);
  // Whole-run counters are not kernel counters.
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.hits(), 0u);
}

/// A graph of one TPC op over an input of `shape` and `dtype`.
template <class Build>
Graph one_op(Build build, tensor::Shape shape = tensor::Shape{{64, 128}},
             tensor::DType dtype = tensor::DType::F32) {
  Graph g;
  const ValueId x = g.input(std::move(shape), dtype, "x");
  g.mark_output(build(g, x));
  return g;
}

TEST(KernelCostCache, EveryKernelInputAddsAnEntry) {
  TimingMemo& memo = TimingMemo::global();
  memo.clear();
  auto leaky = [](float alpha) {
    return [alpha](Graph& g, ValueId x) {
      return g.unary(tpc::UnaryKind::kLeakyRelu, x, alpha);
    };
  };
  auto dropout = [](float p) {
    return [p](Graph& g, ValueId x) { return g.dropout(x, p, 7); };
  };
  auto slice = [](std::int64_t begin) {
    return [begin](Graph& g, ValueId x) { return g.slice_rows(x, begin, 8); };
  };
  auto cast_to = [](tensor::DType to) {
    return [to](Graph& g, ValueId x) { return g.cast(x, to); };
  };
  auto relu = [](Graph& g, ValueId x) { return g.relu(x); };
  sim::ChipConfig slower_launch = chip();
  slower_launch.tpc.launch_overhead_cycles += 1;
  sim::ChipConfig narrower_hbm = chip();
  narrower_hbm.memory.hbm_bandwidth_bytes_per_s /= 2;

  // Each pair differs in exactly one thing the kernel is built from; the
  // first of a pair warms its entry, the second must add one more.
  struct Variant {
    const char* what;
    Graph base;
    Graph changed;
    sim::ChipConfig base_chip = chip();
    sim::ChipConfig changed_chip = chip();
  };
  std::vector<Variant> variants;
  variants.push_back({"alpha", one_op(leaky(0.1f)), one_op(leaky(0.2f))});
  variants.push_back({"p", one_op(dropout(0.1f)), one_op(dropout(0.2f))});
  variants.push_back({"slice begin", one_op(slice(0)), one_op(slice(1))});
  // A cast's target must differ from its input dtype, so cast_to moves
  // together with the operand dtypes.
  variants.push_back(
      {"cast_to", one_op(cast_to(tensor::DType::BF16)),
       one_op(cast_to(tensor::DType::F32), tensor::Shape{{64, 128}},
              tensor::DType::BF16)});
  variants.push_back({"operand dtype", one_op(relu),
                      one_op(relu, tensor::Shape{{64, 128}},
                             tensor::DType::BF16)});
  variants.push_back(
      {"shape dim", one_op(relu), one_op(relu, tensor::Shape{{64, 256}})});
  variants.push_back(
      {"TpcConfig", one_op(relu), one_op(relu), chip(), slower_launch});
  variants.push_back(
      {"HBM bandwidth", one_op(relu), one_op(relu), chip(), narrower_hbm});

  for (const Variant& v : variants) {
    (void)run_timing(v.base, v.base_chip);
    const std::size_t entries = memo.kernel_entries();
    const std::uint64_t misses = memo.kernel_misses();
    (void)run_timing(v.changed, v.changed_chip);
    EXPECT_EQ(memo.kernel_entries(), entries + 1) << v.what;
    EXPECT_EQ(memo.kernel_misses(), misses + 1) << v.what;
  }
}

/// x -> +1 -> relu -> (- y), with the step order and the side of the final
/// subtraction selectable.
Graph chain_graph(bool relu_first, bool chain_is_rhs) {
  Graph g;
  const ValueId x = g.input(tensor::Shape{{32, 512}}, tensor::DType::F32, "x");
  const ValueId y = g.input(tensor::Shape{{32, 512}}, tensor::DType::F32, "y");
  ValueId v = x;
  if (relu_first) {
    v = g.add_scalar(g.relu(v), 1.0f);
  } else {
    v = g.relu(g.add_scalar(v, 1.0f));
  }
  g.mark_output(chain_is_rhs ? g.sub(y, v) : g.sub(v, y));
  return g;
}

TEST(KernelCostCache, FusedChainKeyCoversStepOrderAndOperandSide) {
  Runtime rt(chip());
  CompileOptions fused;
  fused.fuse_elementwise = true;
  for (const bool rhs : {false, true}) {
    ASSERT_EQ(rt.compile(chain_graph(false, rhs), fused).chains.size(), 1u);
  }
  TimingMemo& memo = TimingMemo::global();
  memo.clear();
  (void)run_timing(chain_graph(false, false), chip(), /*fuse=*/true);
  ASSERT_EQ(memo.kernel_entries(), 1u);
  (void)run_timing(chain_graph(false, false), chip(), /*fuse=*/true);
  EXPECT_EQ(memo.kernel_hits(), 1u);

  (void)run_timing(chain_graph(true, false), chip(), /*fuse=*/true);
  EXPECT_EQ(memo.kernel_entries(), 2u) << "reordered steps must miss";
  (void)run_timing(chain_graph(false, true), chip(), /*fuse=*/true);
  EXPECT_EQ(memo.kernel_entries(), 3u) << "flipped chain_is_rhs must miss";
  EXPECT_EQ(memo.kernel_hits(), 1u);
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

TEST(KernelCostCache, TimingModeCostsDoNotDependOnTheSeed) {
  // The key leaves RunOptions::seed out: timing-mode cycles must not read
  // the RNG stream.  The tiny GPT training step covers the RNG-drawing
  // dropout kernel plus embedding, cross-entropy, layernorm and Adam.
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
    TimingMemo::global().clear();
    RunOptions opts = timing_run();
    opts.seed = seed;
    // Layer 1 replays layer 0's kernels; validation recomputes each hit.
    opts.validate = true;
    runs.push_back(rt.run(cg, {}, opts));
    EXPECT_GT(TimingMemo::global().kernel_hits(), 0u);
  }
  EXPECT_EQ(execs_text(runs[0]), execs_text(runs[1]));
  EXPECT_EQ(runs[0].trace.to_chrome_json(), runs[1].trace.to_chrome_json());
}

TEST(KernelCostCache, ValidatedRunCatchesAPlantedWrongEntry) {
  Graph g;
  const ValueId x = g.input(tensor::Shape{{64, 128}}, tensor::DType::F32, "x");
  g.mark_output(g.unary(tpc::UnaryKind::kRelu, x, 1.0f, "planted_relu"));
  Runtime rt(chip());
  const CompiledGraph cg = rt.compile(g);
  const NodeId relu = 0;
  ASSERT_EQ(cg.graph.node(relu).kind, OpKind::kUnary);

  TimingMemo& memo = TimingMemo::global();
  memo.clear();
  tpc::RunResult wrong;
  wrong.duration = sim::SimTime::from_ps(1);
  memo.insert_kernel(kernel_cost_key(cg.graph, relu, chip(), 0), wrong);

  RunOptions opts = timing_run();
  opts.validate = true;
  try {
    (void)rt.run(cg, {}, opts);
    FAIL() << "a wrong cached kernel cost passed validation";
  } catch (const sim::InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'planted_relu' (node 0, op unary"), std::string::npos)
        << what;
  }
  EXPECT_EQ(memo.kernel_hits(), 1u);
}

TEST(KernelCostCache, FaultInjectedRunStillCachesKernelCosts) {
  TimingMemo::global().clear();
  Runtime rt(chip());
  const CompiledGraph cg = rt.compile(small_graph());
  const sim::FaultInjector faults{0xFA517, sim::FaultProfile::stress()};
  RunOptions opts = timing_run();
  opts.faults = &faults;
  (void)rt.run(cg, {}, opts);
  // Faults act only in the scheduler, never on a kernel's cycles, so the
  // relu's cost is cached; a graph run adds no makespan entry.
  EXPECT_EQ(TimingMemo::global().size(), 0u);
  EXPECT_EQ(TimingMemo::global().kernel_entries(), 1u);
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
  EXPECT_EQ(TimingMemo::global().size(), 0u);
}

// --- Fuzz: equivalence with full functional execution ----------------------

TEST(TimingOnlyFuzz, MatchesFunctionalTraceAndSummariesOver50Seeds) {
  Runtime rt(chip());
  const sim::FaultInjector no_faults{};  // neutralizes GAUDI_FAULTS lanes
  TimingMemo& memo = TimingMemo::global();
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

    // Plain timing mode, cold (memo cleared, every hit cross-checked) and
    // then warm (every kernel cost replayed), unfused and fused.
    const CompiledGraph fused_cg = rt.compile(dag.graph, fused);
    for (const CompiledGraph* compiled : {&cg, &fused_cg}) {
      memo.clear();
      RunOptions cold = timing_run();
      cold.guard = sim::NumericsPolicy::kOff;
      cold.faults = &no_faults;
      cold.validate = true;
      const ProfileResult c = rt.run(*compiled, {}, cold);
      const std::uint64_t misses = memo.kernel_misses();
      RunOptions warm = cold;
      warm.validate = false;
      const ProfileResult w = rt.run(*compiled, {}, warm);
      ASSERT_EQ(observable(c), observable(w)) << "seed " << seed;
      ASSERT_EQ(memo.kernel_misses(), misses) << "seed " << seed;
      if (compiled == &cg) {
        ASSERT_EQ(observable(full), observable(c)) << "seed " << seed;
        ASSERT_EQ(c.node_execs.size(), full.node_execs.size())
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

  TimingMemo& memo = TimingMemo::global();
  memo.clear();
  std::vector<std::string> serial(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) {
    serial[i] = run_one(kBase + i);
  }
  const std::size_t serial_kernels = memo.kernel_entries();

  // Fresh memo: the parallel pass races to fill its kernel entries, yet
  // every entry is a pure function of its key, so the in-order merge is
  // byte-identical to the serial pass and the same entries exist.
  memo.clear();
  std::vector<std::string> parallel(kReplicas);
  sim::ThreadPool pool;
  pool.parallel_for(kReplicas,
                    [&](std::size_t i) { parallel[i] = run_one(kBase + i); });
  for (std::size_t i = 0; i < kReplicas; ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "replica " << i;
  }
  EXPECT_GT(serial_kernels, 0u);
  EXPECT_EQ(memo.kernel_entries(), serial_kernels);
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
