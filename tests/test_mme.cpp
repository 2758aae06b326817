// MME model tests: functional GEMM correctness (incl. descriptor
// transposes), cost-model laws, and the Table 2 calibration envelope.
#include <gtest/gtest.h>

#include "mme/mme.hpp"
#include "sim/chip_config.hpp"
#include "tensor/ops.hpp"

namespace gaudi::mme {
namespace {

namespace ops = gaudi::tensor::ops;
using tensor::Shape;
using tensor::Tensor;

MmeEngine engine() { return MmeEngine(sim::ChipConfig::hls1().mme); }

TEST(MmeShapeOf, DerivesAndValidates) {
  const GemmShape s =
      MmeEngine::shape_of(Shape{{4, 8, 16}}, Shape{{4, 16, 32}}, false, false);
  EXPECT_EQ(s.batch, 4);
  EXPECT_EQ(s.m, 8);
  EXPECT_EQ(s.k, 16);
  EXPECT_EQ(s.n, 32);
  EXPECT_EQ(s.flops(), 2ull * 4 * 8 * 16 * 32);

  // Transposes swap the interpreted dims.
  const GemmShape t =
      MmeEngine::shape_of(Shape{{16, 8}}, Shape{{32, 16}}, true, true);
  EXPECT_EQ(t.m, 8);
  EXPECT_EQ(t.k, 16);
  EXPECT_EQ(t.n, 32);

  EXPECT_THROW((void)MmeEngine::shape_of(Shape{{2, 3}}, Shape{{4, 5}}, false, false),
               sim::InvalidArgument);
  EXPECT_THROW(
      (void)MmeEngine::shape_of(Shape{{2, 3, 4}}, Shape{{3, 4, 5}}, false, false),
      sim::InvalidArgument);
}

TEST(MmeExecute, MatchesReferenceWithAllTransposeCombinations) {
  const sim::CounterRng rng(61);
  const Tensor a = Tensor::uniform(Shape{{6, 10}}, rng.stream(1), -1.0f, 1.0f);
  const Tensor b = Tensor::uniform(Shape{{10, 4}}, rng.stream(2), -1.0f, 1.0f);
  const MmeEngine mme = engine();

  const Tensor base = ops::matmul(a, b);
  EXPECT_LT(ops::max_abs_diff(mme.execute(a, b), base), 1e-5);
  EXPECT_LT(
      ops::max_abs_diff(mme.execute(ops::transpose_last2(a), b, true, false), base),
      1e-5);
  EXPECT_LT(
      ops::max_abs_diff(mme.execute(a, ops::transpose_last2(b), false, true), base),
      1e-5);
  EXPECT_LT(ops::max_abs_diff(mme.execute(ops::transpose_last2(a),
                                          ops::transpose_last2(b), true, true),
                              base),
            1e-5);
}

TEST(MmeExecute, RejectsPhantomTensors) {
  const Tensor a = Tensor::phantom(Shape{{4, 4}});
  const Tensor b = Tensor::phantom(Shape{{4, 4}});
  EXPECT_THROW(engine().execute(a, b), sim::InvalidArgument);
}

TEST(MmeCost, MonotoneInEveryDimension) {
  const MmeEngine mme = engine();
  const GemmShape base{2, 256, 256, 256};
  const auto t0 = mme.cost(base).cycles;
  for (GemmShape s : {GemmShape{4, 256, 256, 256}, GemmShape{2, 512, 256, 256},
                      GemmShape{2, 256, 512, 256}, GemmShape{2, 256, 256, 512}}) {
    EXPECT_GT(mme.cost(s).cycles, t0);
  }
  EXPECT_THROW((void)mme.cost(GemmShape{0, 1, 1, 1}), sim::InvalidArgument);
}

TEST(MmeCost, ThroughputBoundedByPeak) {
  const MmeEngine mme = engine();
  const double peak = sim::ChipConfig::hls1().mme.peak_flops() * 1e-12;
  for (const std::int64_t s : {128, 512, 2048, 8192}) {
    const double tflops = mme.cost(GemmShape{1, s, s, s}).tflops();
    EXPECT_LE(tflops, peak * 1.001) << s;
  }
  // Large GEMMs approach peak.
  EXPECT_GT(mme.cost(GemmShape{1, 8192, 8192, 8192}).tflops(), 0.97 * peak);
}

TEST(MmeCost, SmallSizesAreOverheadBound) {
  const MmeEngine mme = engine();
  // The Table 2 droop: a size-128 batch-64 op runs far below peak.
  const double small = mme.cost(GemmShape{64, 128, 128, 128}).tflops();
  const double large = mme.cost(GemmShape{64, 2048, 2048, 2048}).tflops();
  EXPECT_LT(small, 0.25 * large);
  EXPECT_NEAR(small, 2.3, 0.4);   // paper: 2.35 TFLOPS
  EXPECT_NEAR(large, 14.6, 0.3);  // paper: 14.59 TFLOPS
}

TEST(MmeCost, NarrowOutputsPackTheArray) {
  const MmeEngine mme = engine();
  const auto launch = sim::ChipConfig::hls1().mme.launch_overhead_cycles;
  // n = 64 uses half the array columns: the compute part should cost about
  // half of n = 128 for the same m/k (well above the quarter-array floor).
  const auto full = mme.cost(GemmShape{1, 16384, 128, 2048}).cycles - launch;
  const auto half = mme.cost(GemmShape{1, 16384, 64, 2048}).cycles - launch;
  const double ratio = static_cast<double>(half) / static_cast<double>(full);
  EXPECT_NEAR(ratio, 0.5, 0.05);
  // The packing floor: n = 1 still costs at least a quarter tile.
  const auto tiny = mme.cost(GemmShape{1, 16384, 1, 2048}).cycles - launch;
  EXPECT_NEAR(static_cast<double>(tiny) / static_cast<double>(full), 0.25, 0.05);
}

TEST(MmeCost, BatchStreamsWithoutExtraLaunches) {
  const MmeEngine mme = engine();
  // One batch-8 op is much cheaper than 8 separate ops (one launch overhead
  // instead of eight).
  const auto batched = mme.cost(GemmShape{8, 128, 128, 128}).cycles;
  const auto single = mme.cost(GemmShape{1, 128, 128, 128}).cycles;
  EXPECT_LT(batched, 8 * single);
  EXPECT_GT(batched, single);
}

}  // namespace
}  // namespace gaudi::mme
