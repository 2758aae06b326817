// Timing-only fast path: fingerprinting, memoized replay, the kernel cost
// cache, and functional equivalence.
//
// The contract under test is the tentpole invariant of the fast path: a
// timing-only run must be *observationally identical* to the full pipeline
// — byte-identical trace and engine summaries — while doing none of the
// kernel math, buffer traffic, or guard sweeps, and replaying from the
// process-wide memo on every run after the first.  The kernel cost cache
// makes the same promise one level down: a timing-mode run that replays
// memoized kernel costs reports exactly what a cold one does.  The fuzz
// section checks both over 50 seeded random DAGs against full functional
// execution.
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

Graph small_graph(std::int64_t n = 64) {
  Graph g;
  const ValueId a = g.input(tensor::Shape{{n, n}}, tensor::DType::F32, "a");
  const ValueId b = g.param(tensor::Shape{{n, n}}, "b");
  g.mark_output(g.relu(g.matmul(a, b)));
  return g;
}

/// Everything the fast path promises to reproduce byte-for-byte.
std::string observable(const ProfileResult& r) {
  return r.trace.to_chrome_json() + "\nmakespan_ps=" +
         std::to_string(r.makespan.ps()) + "\n" +
         core::to_report(core::summarize(r.trace), "observable");
}

// --- Fingerprints ----------------------------------------------------------

TEST(Fingerprint, StableAcrossCompilesAndSensitiveToStructure) {
  Runtime rt(chip());
  const Graph g = small_graph();
  const CompiledGraph c1 = rt.compile(g);
  const CompiledGraph c2 = rt.compile(g);
  EXPECT_NE(c1.fingerprint, 0u);
  EXPECT_EQ(c1.fingerprint, c2.fingerprint);
  EXPECT_EQ(c1.fingerprint, c1.stats.fingerprint);

  const CompiledGraph other = rt.compile(small_graph(128));
  EXPECT_NE(other.fingerprint, c1.fingerprint);

  // Compile options are part of the key: a fused artifact schedules
  // differently, so it must not collide with the unfused one.
  CompileOptions copts;
  copts.fuse_elementwise = true;
  EXPECT_NE(rt.compile(g, copts).fingerprint, c1.fingerprint);
}

TEST(Fingerprint, ChipConfigChangesTheKey) {
  sim::ChipConfig a = chip();
  sim::ChipConfig b = chip();
  b.mme.clock_hz = a.mme.clock_hz * 2.0;
  EXPECT_NE(chip_fingerprint(a), chip_fingerprint(b));
  EXPECT_EQ(chip_fingerprint(a), chip_fingerprint(chip()));
}

// --- Memoized replay -------------------------------------------------------

TEST(TimingOnly, SecondRunIsAMemoHitWithIdenticalBytes) {
  TimingMemo::global().clear();
  Runtime rt(chip());
  const CompiledGraph cg = rt.compile(small_graph());
  RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.timing_only = true;

  const ProfileResult first = rt.run(cg, {}, opts);
  EXPECT_TRUE(first.timing_only);
  EXPECT_FALSE(first.memo_hit);

  const ProfileResult second = rt.run(cg, {}, opts);
  EXPECT_TRUE(second.timing_only);
  EXPECT_TRUE(second.memo_hit);
  EXPECT_GT(second.memo_hits, first.memo_hits);
  EXPECT_EQ(observable(first), observable(second));

  // A separately compiled artifact of the same graph replays the same memo
  // entry — the fingerprint, not the object identity, is the key.
  const CompiledGraph cg2 = rt.compile(small_graph());
  const ProfileResult third = rt.run(cg2, {}, opts);
  EXPECT_TRUE(third.memo_hit);
  EXPECT_EQ(observable(first), observable(third));
}

TEST(TimingOnly, PolicyKeysSeparateEntries) {
  TimingMemo::global().clear();
  Runtime rt(chip());
  const CompiledGraph cg = rt.compile(small_graph());
  RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.timing_only = true;
  opts.policy = SchedulePolicy::kBarrier;
  const ProfileResult barrier = rt.run(cg, {}, opts);
  opts.policy = SchedulePolicy::kOverlap;
  const ProfileResult overlap = rt.run(cg, {}, opts);
  // Overlap never schedules later than barrier; distinct entries mean the
  // second run was a miss, not a replay of the barrier trace.
  EXPECT_FALSE(overlap.memo_hit);
  EXPECT_LE(overlap.makespan, barrier.makespan);
}

TEST(TimingOnly, FaultInjectionBypassesTheMemo) {
  TimingMemo::global().clear();
  Runtime rt(chip());
  const CompiledGraph cg = rt.compile(small_graph());
  const sim::FaultInjector faults{0xFA517, sim::FaultProfile::stress()};
  RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.timing_only = true;
  opts.faults = &faults;
  const ProfileResult r = rt.run(cg, {}, opts);
  // The fault schedule is epoch-dependent, so the run takes the full path:
  // no profile is deposited and none replayed.  Kernel costs still are:
  // faults act only in the scheduler, never on a kernel's cycles.
  EXPECT_FALSE(r.timing_only);
  EXPECT_FALSE(r.memo_hit);
  EXPECT_EQ(TimingMemo::global().size(), 0u);
  EXPECT_EQ(TimingMemo::global().kernel_entries(), 1u);
}

TEST(TimingOnly, EnvOnlyAppliesToTimingModeRuns) {
  TimingMemo::global().clear();
  ASSERT_EQ(setenv("GAUDI_TIMING_ONLY", "1", 1), 0);
  Runtime rt(chip());
  const Graph g = small_graph();
  const CompiledGraph cg = rt.compile(g);

  // A functional run keeps producing real outputs: the env var must never
  // silently phantomize them.
  RunOptions functional;
  functional.mode = tpc::ExecMode::kFunctional;
  functional.guard = sim::NumericsPolicy::kOff;
  const ProfileResult f = rt.run(cg, random_feeds(g, 7), functional);
  EXPECT_FALSE(f.timing_only);
  EXPECT_FALSE(f.outputs.empty());

  // A timing run opts in via the environment alone.
  RunOptions timing;
  timing.mode = tpc::ExecMode::kTiming;
  const ProfileResult t1 = rt.run(cg, {}, timing);
  const ProfileResult t2 = rt.run(cg, {}, timing);
  EXPECT_TRUE(t1.timing_only);
  EXPECT_TRUE(t2.memo_hit);
  ASSERT_EQ(unsetenv("GAUDI_TIMING_ONLY"), 0);
}

// --- Kernel cost cache -----------------------------------------------------
//
// Timing-mode runs memoize each TPC launch's RunResult under an exact key of
// what the kernel is built from.  These tests pin what the key covers: what
// must share an entry, what must not, and the exactness cross-check that
// validated runs apply to every hit.

/// Plain timing mode, even under GAUDI_TIMING_ONLY.
RunOptions timing_run() {
  RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.timing_only = false;
  return opts;
}

/// Runs `g` in timing mode on `cfg` (unfused unless `fuse`).
ProfileResult run_timing(const Graph& g, const sim::ChipConfig& cfg = chip(),
                         bool fuse = false) {
  RunOptions opts = timing_run();
  opts.fuse_elementwise = fuse;
  return Runtime(cfg).run(g, {}, opts);
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
  // The key leaves RunOptions::seed out: phantom-mode cycles must not read
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
    // Guard sweeps add kGuard spans to functional traces, which timing-only
    // runs skip by contract; pin the guard off so the comparison is
    // mode-to-mode even under a GAUDI_GUARD CI lane.
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
      }
    }

    RunOptions fast;
    fast.mode = tpc::ExecMode::kTiming;
    fast.timing_only = true;
    fast.faults = &no_faults;
    const ProfileResult t1 = rt.run(cg, {}, fast);
    const ProfileResult t2 = rt.run(cg, {}, fast);

    ASSERT_EQ(observable(full), observable(t1)) << "seed " << seed;
    ASSERT_EQ(observable(t1), observable(t2)) << "seed " << seed;
    ASSERT_TRUE(t1.timing_only) << "seed " << seed;
    ASSERT_TRUE(t2.memo_hit) << "seed " << seed;
    ASSERT_EQ(t1.node_execs.size(), full.node_execs.size()) << "seed " << seed;
  }
}

// --- Parallel replicas -----------------------------------------------------

TEST(TimingOnly, ParallelReplicasMatchSerialMerge) {
  constexpr std::uint64_t kBase = 0x5EED00;
  constexpr std::size_t kReplicas = 12;

  const auto run_one = [](std::uint64_t seed) {
    Runtime rt(chip());
    const RandomDag dag = random_dag(seed);
    RunOptions fast;
    fast.mode = tpc::ExecMode::kTiming;
    fast.timing_only = true;
    return observable(rt.run(dag.graph, {}, fast));
  };

  TimingMemo::global().clear();
  std::vector<std::string> serial(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) {
    serial[i] = run_one(kBase + i);
  }

  // Fresh memo: the parallel pass races to populate it, yet every replica's
  // entry is a pure function of its seed, so the in-order merge is
  // byte-identical to the serial pass.
  TimingMemo::global().clear();
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
// The makespan entries are pure functions of their fingerprint keys, so a
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
