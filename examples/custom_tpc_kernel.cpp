// Writing a custom TPC kernel — the workflow Habana's TPC SDK supports and
// the paper's Table 2 exercises (its TPC matmul comes from the
// Habana_Custom_Kernel examples).  We implement a fused "swish-residual"
// kernel (out = x + y * sigmoid(y)), run it functionally, check it against a
// composed-op reference, and compare instruction-level costs.
//
//   $ ./custom_tpc_kernel
#include <cstdio>

#include "sim/chip_config.hpp"
#include "tensor/ops.hpp"
#include "tpc/cluster.hpp"
#include "tpc/kernels.hpp"

namespace {

using namespace gaudi;

/// out[i] = x[i] + y[i] * sigmoid(y[i]) in one pass over global memory.
///
/// A kernel implements: a name, an index space (units of independent work),
/// a local-memory budget, and a per-member instruction stream expressed
/// through context intrinsics — each intrinsic is charged to its VLIW slot,
/// so the cycle count below *is* the performance model.  The body is written
/// once as a template over the context: functional runs instantiate it over
/// a DataContext that computes, and timing runs over a CostContext that only
/// charges; KernelBody builds both of Kernel's entry points from it.
class SwishResidualKernel final : public tpc::KernelBody<SwishResidualKernel> {
 public:
  SwishResidualKernel(tensor::Tensor x, tensor::Tensor y, tensor::Tensor out)
      : x_(std::move(x)), y_(std::move(y)), out_(std::move(out)) {
    GAUDI_CHECK(x_.numel() == y_.numel() && x_.numel() == out_.numel(),
                "element counts must match");
  }

  [[nodiscard]] std::string name() const override { return "custom.swish_residual"; }

  [[nodiscard]] tpc::IndexSpace index_space() const override {
    // One member per 8 vectors (512 f32 elements), like the library kernels.
    return tpc::IndexSpace{{(x_.numel() + 511) / 512}};
  }

  template <class Ctx>
  void body(Ctx& ctx, const tpc::Member& m) const {
    const auto x = tpc::ro(x_);
    const auto y = tpc::ro(y_);
    auto out = tpc::rw(out_);
    const std::int64_t begin = m.linear * 512;
    const std::int64_t end = std::min<std::int64_t>(x_.numel(), begin + 512);
    for (std::int64_t off = begin; off < end; off += tpc::kLanes) {
      const int count =
          static_cast<int>(std::min<std::int64_t>(tpc::kLanes, end - off));
      const auto vx = ctx.v_ld_g(x, off, count);
      const auto vy = ctx.v_ld_g(y, off, count);
      const auto sw = ctx.v_mul(vy, ctx.v_sigmoid(vy));
      ctx.v_st_g(out, off, ctx.v_add(vx, sw), count);
    }
  }

  [[nodiscard]] std::uint64_t flop_count() const override {
    return static_cast<std::uint64_t>(x_.numel()) * 3;
  }

 private:
  tensor::Tensor x_, y_, out_;
};

}  // namespace

int main() {
  const sim::ChipConfig cfg = sim::ChipConfig::hls1();
  const tpc::TpcCluster cluster(cfg.tpc);
  const std::int64_t n = 1 << 20;

  const sim::CounterRng rng(7);
  const tensor::Tensor x =
      tensor::Tensor::uniform(tensor::Shape{{n}}, rng.stream(1), -2.0f, 2.0f);
  const tensor::Tensor y =
      tensor::Tensor::uniform(tensor::Shape{{n}}, rng.stream(2), -2.0f, 2.0f);
  tensor::Tensor out = tensor::Tensor::zeros(tensor::Shape{{n}});

  // Functional run: real numerics + exact cycle accounting.
  const tpc::RunResult fused =
      cluster.run(SwishResidualKernel(x, y, out), tpc::ExecMode::kFunctional);

  // Verify against the composed reference.
  namespace ops = tensor::ops;
  const tensor::Tensor expect = ops::add(x, ops::mul(y, ops::sigmoid(y)));
  std::printf("max |fused - composed| = %.2e\n", ops::max_abs_diff(out, expect));

  // Compare with running the same math as three separate library kernels
  // (what the graph compiler would do without fusion).
  tensor::Tensor t1 = tensor::Tensor::zeros(tensor::Shape{{n}});
  tensor::Tensor t2 = tensor::Tensor::zeros(tensor::Shape{{n}});
  tensor::Tensor t3 = tensor::Tensor::zeros(tensor::Shape{{n}});
  sim::SimTime composed{};
  composed += cluster
                  .run(tpc::UnaryEwKernel(tpc::UnaryKind::kSigmoid, y, t1),
                       tpc::ExecMode::kFunctional)
                  .duration;
  composed += cluster
                  .run(tpc::BinaryEwKernel(tpc::BinaryKind::kMul, y, t1, t2),
                       tpc::ExecMode::kFunctional)
                  .duration;
  composed += cluster
                  .run(tpc::BinaryEwKernel(tpc::BinaryKind::kAdd, x, t2, t3),
                       tpc::ExecMode::kFunctional)
                  .duration;

  std::printf("fused kernel   : %s (%.0f GB/s effective)\n",
              sim::to_string(fused.duration).c_str(),
              3.0 * n * 4 / fused.duration.seconds() * 1e-9);
  std::printf("three kernels  : %s\n", sim::to_string(composed).c_str());
  std::printf("fusion speedup : %.2fx (fewer global-memory passes and\n",
              composed.seconds() / fused.duration.seconds());
  std::puts("                 launch overheads — why kernel-level fusion");
  std::puts("                 matters on TPC-class SIMD machines)");

  // Slot-level view: where the cycles went.
  std::printf("issued cycles  : load=%llu  vpu=%llu  store=%llu  spu=%llu\n",
              static_cast<unsigned long long>(fused.slot_totals.load),
              static_cast<unsigned long long>(fused.slot_totals.vpu),
              static_cast<unsigned long long>(fused.slot_totals.store),
              static_cast<unsigned long long>(fused.slot_totals.spu));
  return 0;
}
