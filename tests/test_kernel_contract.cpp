// The kernel contract timing mode rests on: a member's instruction stream
// never depends on the values it loads.  Timing mode runs sampled members
// over a CostContext, which computes nothing, and takes their cycles and
// bytes for the functional run's.  Every kernel of tpc/kernels.hpp and the
// fused chain kernel runs each member over a DataContext on hostile data
// (an all -inf row, an all-zero row, a NaN) and over a CostContext; both must
// charge the same slot cycles and global bytes.  Shapes have tails: element
// counts that are not a multiple of 64, and odd row counts, which send the
// TPC matmul's last row through its unpaired scalar load.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "graph/fusion.hpp"
#include "sim/chip_config.hpp"
#include "tpc/cluster.hpp"
#include "tpc/kernels.hpp"

namespace gaudi::tpc {
namespace {

using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

sim::TpcConfig tpc_cfg() { return sim::ChipConfig::hls1().tpc; }

/// Uniform values in rows of the trailing dim (of 50 elements for rank 1):
/// row 0 is all -inf, row 1 all zero, and row 2 holds a NaN.
Tensor hostile(Shape shape, std::uint64_t stream) {
  Tensor t = Tensor::uniform(shape, sim::CounterRng{0xC0DE}.stream(stream), -3.0f, 3.0f);
  const std::int64_t d = shape.rank() >= 2 ? shape[shape.rank() - 1] : 50;
  const auto v = t.f32_mut();
  const auto n = static_cast<std::int64_t>(v.size());
  for (std::int64_t j = 0; j < d && j < n; ++j) {
    v[static_cast<std::size_t>(j)] = -std::numeric_limits<float>::infinity();
  }
  for (std::int64_t j = d; j < 2 * d && j < n; ++j) v[static_cast<std::size_t>(j)] = 0.0f;
  if (2 * d + 3 < n) v[static_cast<std::size_t>(2 * d + 3)] = std::numeric_limits<float>::quiet_NaN();
  return t;
}

Tensor tokens(std::int64_t n, std::int64_t vocab, std::uint64_t seed) {
  return Tensor::random_tokens(Shape{{n}}, sim::CounterRng{seed}, vocab);
}

struct MemberCost {
  SlotCycles cycles;
  std::uint64_t global_bytes = 0;
};

template <class Ctx>
MemberCost member_cost(const Kernel& k, const Member& m) {
  Ctx ctx(tpc_cfg(), 0, k.local_memory_vectors(), sim::CounterRng{3});
  k.execute(ctx, m);
  return {ctx.cycles(), ctx.global_bytes()};
}

std::string describe(const MemberCost& c) {
  std::ostringstream os;
  os << "slots " << c.cycles.load << '/' << c.cycles.spu << '/' << c.cycles.vpu
     << '/' << c.cycles.store << ", " << c.global_bytes << " bytes";
  return os.str();
}

/// Every member of `k` charges the same cycles and bytes over data as over a
/// cost context.
::testing::AssertionResult same_cost_every_member(const Kernel& k) {
  const IndexSpace space = k.index_space();
  for (std::int64_t i = 0; i < space.size(); ++i) {
    const Member m = space.member(i);
    const MemberCost data = member_cost<DataContext>(k, m);
    const MemberCost cost = member_cost<CostContext>(k, m);
    if (!(data.cycles == cost.cycles) || data.global_bytes != cost.global_bytes) {
      return ::testing::AssertionFailure()
             << k.name() << " member " << i << ": data " << describe(data)
             << ", cost " << describe(cost);
    }
  }
  return ::testing::AssertionSuccess()
         << k.name() << " over " << space.size() << " members";
}

/// One instance of every kernel of tpc/kernels.hpp, every kind of each.
std::vector<std::unique_ptr<Kernel>> library_kernels() {
  std::vector<std::unique_ptr<Kernel>> ks;
  auto add = [&](auto kernel) {
    ks.push_back(std::make_unique<decltype(kernel)>(std::move(kernel)));
  };
  const std::int64_t n = 1000;             // two members, the second with a tail
  const std::int64_t rows = 5, cols = 100;  // 64-lane vector plus a 36-lane tail
  const Shape flat{{n}};
  const Shape mat{{rows, cols}};
  auto zeros = [](Shape s, DType dt = DType::F32) { return Tensor::zeros(std::move(s), dt); };

  for (int k = 0; k <= static_cast<int>(UnaryKind::kAbs); ++k) {
    const auto kind = static_cast<UnaryKind>(k);
    add(UnaryEwKernel(kind, hostile(flat, 1), zeros(flat), 0.1f));
    add(UnaryGradKernel(kind, hostile(flat, 2), hostile(flat, 3), zeros(flat), 0.1f));
  }
  for (int k = 0; k <= static_cast<int>(BinaryKind::kMax); ++k) {
    add(BinaryEwKernel(static_cast<BinaryKind>(k), hostile(flat, 4), hostile(flat, 5),
                       zeros(flat)));
  }
  for (int k = 0; k <= static_cast<int>(ScalarKind::kMulS); ++k) {
    add(ScalarEwKernel(static_cast<ScalarKind>(k), hostile(flat, 6), 1.5f, zeros(flat)));
  }
  add(FillKernel(zeros(flat), 2.0f));
  add(RowvecKernel(RowvecKernel::Op::kAdd, hostile(mat, 7), hostile(Shape{{cols}}, 8),
                   zeros(mat)));
  add(RowvecKernel(RowvecKernel::Op::kMul, hostile(mat, 7), hostile(Shape{{cols}}, 8),
                   zeros(mat)));
  add(GluKernel(hostile(Shape{{rows, 2 * cols}}, 9), zeros(mat)));
  add(GluGradKernel(hostile(Shape{{rows, 2 * cols}}, 9), hostile(mat, 10),
                    zeros(Shape{{rows, 2 * cols}})));
  add(CastKernel(hostile(flat, 11), zeros(flat, DType::BF16)));
  add(CastKernel(hostile(flat, 11).to(DType::BF16), zeros(flat)));
  add(DropoutKernel(hostile(flat, 12), zeros(flat), 0.3f, 5));

  add(SoftmaxKernel(hostile(mat, 13), zeros(mat)));
  const Shape uncached{{3, kLanes * 257 + 3}};  // too long to stage in local memory
  add(SoftmaxKernel(hostile(uncached, 14), zeros(uncached)));
  add(SoftmaxGradKernel(hostile(mat, 15), hostile(mat, 16), zeros(mat)));
  add(LayerNormKernel(hostile(mat, 17), hostile(Shape{{cols}}, 18),
                      hostile(Shape{{cols}}, 19), zeros(mat), zeros(Shape{{rows}}),
                      zeros(Shape{{rows}})));
  add(LayerNormKernel(hostile(mat, 17), hostile(Shape{{cols}}, 18),
                      hostile(Shape{{cols}}, 19), zeros(mat), Tensor{}, Tensor{}));
  add(LayerNormInputGradKernel(hostile(mat, 20), hostile(Shape{{cols}}, 21),
                               hostile(Shape{{rows}}, 22), hostile(Shape{{rows}}, 23),
                               hostile(mat, 24), zeros(mat)));
  add(LayerNormParamGradKernel(hostile(mat, 25), hostile(Shape{{rows}}, 26),
                               hostile(Shape{{rows}}, 27), hostile(mat, 28),
                               zeros(Shape{{cols}}), zeros(Shape{{cols}})));
  for (int k = 0; k <= static_cast<int>(ReduceKind::kMean); ++k) {
    add(ReduceLastDimKernel(static_cast<ReduceKind>(k), hostile(mat, 29),
                            zeros(Shape{{rows, 1}})));
  }
  add(BroadcastLastKernel(hostile(Shape{{rows, 1}}, 30), zeros(mat)));
  add(ColumnSumKernel(hostile(mat, 31), zeros(Shape{{cols}})));
  add(AddMask2DKernel(hostile(Shape{{3, rows, cols}}, 32), hostile(mat, 33),
                      zeros(Shape{{3, rows, cols}})));
  add(SwapAxes12Kernel(hostile(Shape{{2, 3, rows, 70}}, 34), zeros(Shape{{2, rows, 3, 70}})));
  add(ConcatRowsKernel(hostile(Shape{{2, 3, 70}}, 35), hostile(Shape{{2, 4, 70}}, 36),
                       zeros(Shape{{2, 7, 70}})));
  add(SliceRowsKernel(hostile(Shape{{2, 7, 70}}, 37), zeros(Shape{{2, 3, 70}}), 2));
  add(TransposeLast2Kernel(hostile(Shape{{2, 65, 63}}, 38), zeros(Shape{{2, 63, 65}})));

  // 33 rows: a full 32-row tile, then one row on the unpaired scalar load;
  // k = 70 stages a full k-block and a 6-deep tail.
  add(BatchedMatMulTpcKernel(hostile(Shape{{2, 33, 70}}, 39), hostile(Shape{{2, 70, 63}}, 40),
                             zeros(Shape{{2, 33, 63}})));

  add(SgdUpdateKernel(hostile(flat, 41), hostile(flat, 42), zeros(flat), hostile(flat, 43),
                      zeros(flat), 0.01f, 0.9f));
  add(SgdUpdateKernel(hostile(flat, 41), hostile(flat, 42), zeros(flat), Tensor{}, Tensor{},
                      0.01f, 0.0f));
  add(AdamUpdateKernel(hostile(flat, 44), hostile(flat, 45), hostile(flat, 46),
                       hostile(flat, 47), zeros(flat), zeros(flat), zeros(flat), 1e-3f,
                       0.9f, 0.999f, 1e-8f, 3));

  const std::int64_t vocab = 133;  // a 5-lane tail after two full vectors
  add(EmbeddingGatherKernel(hostile(Shape{{20, cols}}, 48), tokens(7, 20, 49),
                            zeros(Shape{{7, cols}})));
  add(EmbeddingGradKernel(tokens(7, 20, 50), hostile(Shape{{7, cols}}, 51),
                          zeros(Shape{{20, cols}})));
  add(CrossEntropyKernel(hostile(Shape{{rows, vocab}}, 52), tokens(rows, vocab, 53),
                         zeros(Shape{{rows}})));
  add(CrossEntropyGradKernel(hostile(Shape{{rows, vocab}}, 54), tokens(rows, vocab, 55),
                             zeros(Shape{{rows, vocab}}), 0.2f));
  return ks;
}

TEST(KernelContract, EveryLibraryKernelChargesTheSameWithoutData) {
  for (const auto& k : library_kernels()) EXPECT_TRUE(same_cost_every_member(*k));
}

TEST(KernelContract, FusedChainChargesTheSameWithoutData) {
  // Value 0 is the chain input, 1 the external operand, 2 the output.  The
  // chain applies every fusible op, both binary operand orders, x op x, and
  // every unary kind.
  using graph::OpKind;
  graph::FusedChainSpec spec;
  spec.chain_input = 0;
  spec.output = 2;
  spec.numel = 1000;
  spec.label = "contract";
  auto step = [&](OpKind kind, bool external, bool chain_is_rhs = false) {
    graph::FusedChainStep s;
    s.kind = kind;
    s.attrs.scalar = 0.5f;
    s.attrs.alpha = 0.1f;
    if (external) s.external = 1;
    s.chain_is_rhs = chain_is_rhs;
    spec.steps.push_back(s);
  };
  for (const OpKind k : {OpKind::kAdd, OpKind::kSub, OpKind::kMul, OpKind::kDiv,
                         OpKind::kMaxEw}) {
    step(k, true);
    step(k, true, true);
  }
  step(OpKind::kMul, false);
  for (const OpKind k : {OpKind::kAddScalar, OpKind::kSubScalar, OpKind::kRsubScalar,
                         OpKind::kMulScalar}) {
    step(k, false);
  }
  for (int k = 0; k <= static_cast<int>(UnaryKind::kAbs); ++k) {
    step(OpKind::kUnary, false);
    spec.steps.back().attrs.unary = static_cast<UnaryKind>(k);
  }
  const std::vector<Tensor> tensors = {hostile(Shape{{1000}}, 60), hostile(Shape{{1000}}, 61),
                                       Tensor::zeros(Shape{{1000}})};
  EXPECT_TRUE(same_cost_every_member(graph::FusedChainKernel(spec, tensors)));
}

/// Loads a second vector only when the first element it reads is positive:
/// the data-dependent control flow the contract forbids.
class DataDependentKernel final : public KernelBody<DataDependentKernel> {
 public:
  explicit DataDependentKernel(Tensor in) : in_(std::move(in)) {}
  [[nodiscard]] std::string name() const override { return "test.data_dependent"; }
  [[nodiscard]] IndexSpace index_space() const override { return IndexSpace{{1}}; }
  template <class Ctx>
  void body(Ctx& ctx, const Member&) const {
    const auto in = ro(in_);
    if (ctx.s_ld_g(in, 0) > 0.0f) ctx.v_ld_g(in, 0);
  }

 private:
  Tensor in_;
};

TEST(KernelContract, CatchesALoadCountThatDependsOnData) {
  const Tensor in = Tensor::full(Shape{{64}}, 1.0f);
  EXPECT_FALSE(same_cost_every_member(DataDependentKernel(in)));
  EXPECT_TRUE(same_cost_every_member(DataDependentKernel(Tensor::zeros(Shape{{64}}))));
}

TEST(KernelContract, CostContextKeepsTheLocalMemoryBoundsCheck) {
  CostContext ctx(tpc_cfg(), 0, 4, sim::CounterRng{});
  ctx.v_st_l(3, ctx.v_ld_l(0));
  EXPECT_THROW(ctx.v_ld_l(4), sim::InvalidArgument);
  EXPECT_THROW(ctx.v_st_l(-1, {}), sim::InvalidArgument);
  EXPECT_THROW((void)ctx.s_ld_l2(0, 0, 4, 0), sim::InvalidArgument);
  CostContext none(tpc_cfg(), 0, 0, sim::CounterRng{});
  EXPECT_THROW((void)none.s_ld_l(0, 0), sim::InvalidArgument);
}

TEST(KernelContract, Table2TimingRunsArePinned) {
  // Table 2's TPC side at batch 64, measured before timing mode ran over a
  // cost context: the sampled, extrapolated RunResult must not move.
  struct Pin {
    std::int64_t s;
    sim::Cycles cycles;
    std::uint64_t global_bytes;
  };
  const TpcCluster cluster(sim::ChipConfig::hls1().tpc);
  for (const Pin& pin : {Pin{128, 314'192, 29'360'128}, Pin{256, 2'155'344, 218'103'808},
                         Pin{512, 16'859'984, 1'677'721'600},
                         Pin{1024, 134'398'800, 13'153'337'344},
                         Pin{2048, 1'074'316'112, 104'152'956'928}}) {
    const Shape shape{{64, pin.s, pin.s}};
    const RunResult r = cluster.run(
        BatchedMatMulTpcKernel(Tensor::phantom(shape), Tensor::phantom(shape),
                               Tensor::phantom(shape)),
        ExecMode::kTiming);
    EXPECT_EQ(r.cycles, pin.cycles) << "s = " << pin.s;
    EXPECT_EQ(r.global_bytes, pin.global_bytes) << "s = " << pin.s;
    EXPECT_TRUE(r.extrapolated);
  }
}

}  // namespace
}  // namespace gaudi::tpc
