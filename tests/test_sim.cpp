// Unit tests for the simulation substrate: time base, RNG, thread pool.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "sim/chip_config.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "sim/time.hpp"

namespace gaudi::sim {
namespace {

TEST(SimTime, ConversionsRoundTrip) {
  const SimTime t = SimTime::from_ms(12.5);
  EXPECT_DOUBLE_EQ(t.ms(), 12.5);
  EXPECT_DOUBLE_EQ(t.us(), 12500.0);
  EXPECT_EQ(t.ps(), 12'500'000'000LL);
  EXPECT_DOUBLE_EQ(SimTime::from_seconds(2.0).seconds(), 2.0);
}

TEST(SimTime, ArithmeticIsExact) {
  const SimTime a = SimTime::from_ps(3);
  const SimTime b = SimTime::from_ps(5);
  EXPECT_EQ((a + b).ps(), 8);
  EXPECT_EQ((b - a).ps(), 2);
  EXPECT_EQ((a * 7).ps(), 21);
  EXPECT_LT(a, b);
  EXPECT_EQ(SimTime::zero().ps(), 0);
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ(to_string(SimTime::from_ms(12.0)), "12.000 ms");
  EXPECT_EQ(to_string(SimTime::from_us(3.5)), "3.500 us");
  EXPECT_EQ(to_string(SimTime::from_seconds(1.25)), "1.250 s");
}

TEST(SimTime, StretchedRoundsToTheNearestPicosecond) {
  const SimTime t = SimTime::from_ps(1001);
  EXPECT_EQ(t.stretched(1.0), t);
  EXPECT_EQ(t.stretched(0.5), t);  // a factor below 1 never shortens
  EXPECT_EQ(t.stretched(2.0), SimTime::from_ps(2002));
  EXPECT_EQ(t.stretched(1.5), SimTime::from_ps(1502));  // 1501.5 rounds up
  EXPECT_EQ(t.stretched(1.4995), SimTime::from_ps(1501));  // 1500.9995
}

TEST(RetryBackoff, DoublesPerAttemptAndSaturatesAtTheCap) {
  const SimTime base = SimTime::from_ms(5.0);
  const SimTime cap = SimTime::from_ms(40.0);
  EXPECT_EQ(backoff_delay(base, cap, 1), base);
  EXPECT_EQ(backoff_delay(base, cap, 2), base * 2);
  EXPECT_EQ(backoff_delay(base, cap, 3), base * 4);
  EXPECT_EQ(backoff_delay(base, cap, 4), cap);  // 40 caps 40
  EXPECT_EQ(backoff_delay(base, cap, 5), cap);
  // Attempt counts far past the shift width must not overflow: still cap.
  EXPECT_EQ(backoff_delay(base, cap, 63), cap);
  // Nor may a huge base: 10^7 ms doubled ten times overflows int64 ps.
  const SimTime huge = SimTime::from_ms(10'000'000.0);
  const SimTime five_s = SimTime::from_ms(5000.0);
  EXPECT_EQ(backoff_delay(huge, five_s, 1), five_s);
  EXPECT_EQ(backoff_delay(huge, five_s, 11), five_s);
  EXPECT_THROW((void)backoff_delay(base, cap, 0), InternalError);
  // Without a ceiling (the fabric and DMA retries) the doubling runs on,
  // and saturates at the largest time instead of wrapping.
  const SimTime fabric = SimTime::from_us(100.0);
  EXPECT_EQ(backoff_delay(fabric, SimTime::max(), 31),
            fabric * (std::int64_t{1} << 30));
  EXPECT_EQ(backoff_delay(fabric, SimTime::max(), 63), SimTime::max());
}

TEST(Clock, CycleConversionRoundsUp) {
  const Clock c(1e9);  // 1 GHz -> 1 ns per cycle
  EXPECT_EQ(c.to_time(10).ps(), 10'000);
  // A partial cycle still occupies a full cycle.
  EXPECT_EQ(c.to_cycles(SimTime::from_ps(1500)), 2u);
  EXPECT_EQ(c.to_cycles(SimTime::from_ps(1000)), 1u);
}

TEST(Clock, HigherFrequencyShorterPeriod) {
  EXPECT_LT(Clock(2e9).to_time(100).ps(), Clock(1e9).to_time(100).ps());
}

TEST(CounterRng, DeterministicPerCounter) {
  const CounterRng rng(42, 7);
  EXPECT_EQ(rng.bits(0), CounterRng(42, 7).bits(0));
  EXPECT_NE(rng.bits(0), rng.bits(1));
  EXPECT_NE(rng.bits(0), CounterRng(43, 7).bits(0));
  EXPECT_NE(rng.bits(0), rng.stream(1).bits(0));
}

TEST(CounterRng, UniformInRange) {
  const CounterRng rng(1);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const float u = rng.uniform(i);
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
  }
  const float v = rng.uniform(3, -2.0f, 2.0f);
  EXPECT_GE(v, -2.0f);
  EXPECT_LT(v, 2.0f);
}

TEST(CounterRng, UniformMeanIsCentered) {
  const CounterRng rng(123);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform(static_cast<std::uint64_t>(i));
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(CounterRng, NormalMomentsAreStandard) {
  const CounterRng rng(7);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(static_cast<std::uint64_t>(i));
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(CounterRng, BelowStaysInRange) {
  const CounterRng rng(9);
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(i, 17);
    EXPECT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit over 1000 draws
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksPartition) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_for_chunks(12345, [&](std::size_t b, std::size_t e) {
    ASSERT_LE(b, e);
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 12345u);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_chunks(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A parallel_for issued from inside a worker task must not queue-and-wait
  // (deadlock once every worker blocks); the inner range runs inline.  With
  // 2 workers and 8 outer tasks each fanning out 8 inner increments, the
  // pre-fix pool hangs here.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 57) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

// Overwrites the stack region a just-returned parallel_for frame used, so a
// worker still touching that frame's completion state finds garbage there
// rather than a look-alike of the next call's.
[[gnu::noinline]] void scribble_stack() {
  volatile unsigned char junk[4096];
  for (std::size_t i = 0; i < sizeof(junk); ++i) junk[i] = 0xA5;
}

TEST(ThreadPool, BackToBackSmallCallsNeverOutliveTheirCaller) {
  // The worker that retires the last chunk must be done with the caller's
  // completion state before the caller can return and free it.  Many tiny
  // back-to-back ranges, with the stack scribbled between calls, give a
  // late worker every chance to trip over a dead frame.
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  constexpr std::size_t kCalls = 20000;
  for (std::size_t call = 0; call < kCalls; ++call) {
    pool.parallel_for(8, [&](std::size_t i) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
    scribble_stack();
  }
  EXPECT_EQ(total.load(), kCalls * 28);
}

/// The threads `pool` runs each index of a 64-wide range on.
std::vector<std::thread::id> threads_per_index(ThreadPool& pool) {
  std::vector<std::thread::id> ran(64);
  pool.parallel_for(ran.size(), [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  return ran;
}

TEST(ThreadPool, OneWorkerRunsOnTheCaller) {
  // One worker could only take ranges off a caller that then sleeps: the
  // pool starts none and runs everything, in order, on the calling thread.
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);
  for (const std::thread::id id : threads_per_index(pool)) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_chunks(100, [&](std::size_t b, std::size_t e) {
    chunks.emplace_back(b, e);
  });
  EXPECT_EQ(chunks, (std::vector<std::pair<std::size_t, std::size_t>>{{0, 100}}));
}

TEST(ThreadPool, DefaultSizeFollowsTheAffinityMask) {
  // A process pinned to one CPU (taskset, a cpuset) gets a default pool
  // that runs inline rather than one worker per CPU of the machine.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  std::size_t workers = 0;
  std::vector<std::thread::id> ran;
  {
    ThreadPool pool;
    workers = pool.size();
    ran = threads_per_index(pool);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(workers, 0u);
  for (const std::thread::id id : ran) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(Errors, CheckMacroThrowsTyped) {
  EXPECT_THROW(GAUDI_CHECK(false, "bad arg"), InvalidArgument);
  EXPECT_THROW(GAUDI_ASSERT(false, "broken"), InternalError);
  try {
    GAUDI_CHECK(1 == 2, "specific message");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("specific message"), std::string::npos);
  }
}

TEST(ChipConfig, Hls1MatchesPaperHeadlines) {
  const ChipConfig cfg = ChipConfig::hls1();
  // MME peak ~14.6 TFLOPS f32 (Table 2 saturation), TPC cluster ~2.2.
  EXPECT_NEAR(cfg.mme.peak_flops() * 1e-12, 14.6, 0.3);
  EXPECT_NEAR(cfg.tpc.cluster_peak_flops() * 1e-12, 2.2, 0.1);
  // Paper §2.2: 2048-bit SIMD, 8 cores, 80 KB + 1 KB local memories,
  // 4-cycle global vector access; §3.1: 32 GB on-chip memory.
  EXPECT_EQ(cfg.tpc.vector_bits, 2048u);
  EXPECT_EQ(cfg.tpc.num_cores, 8u);
  EXPECT_EQ(cfg.tpc.vector_local_bytes, 80u * 1024);
  EXPECT_EQ(cfg.tpc.scalar_local_bytes, 1024u);
  EXPECT_EQ(cfg.tpc.global_access_cycles, 4u);
  EXPECT_EQ(cfg.memory.hbm_bytes, 32ull * 1024 * 1024 * 1024);
}

}  // namespace
}  // namespace gaudi::sim
