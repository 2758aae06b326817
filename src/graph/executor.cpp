#include "graph/executor.hpp"

#include <utility>

#include "tensor/ops.hpp"
#include "tpc/kernels.hpp"

namespace gaudi::graph {

using tensor::Tensor;
using tpc::ExecMode;

Tensor make_output_tensor(const ValueInfo& info, ExecMode mode, bool poison) {
  if (mode == ExecMode::kFunctional) {
    Tensor t = Tensor::zeros(info.shape, info.dtype);
    if (poison) tensor::ops::poison_fill(t);
    return t;
  }
  return Tensor::phantom(info.shape, info.dtype);
}

NodeExec NodeExecutor::run(const Graph& g, NodeId nid,
                           std::vector<tensor::Tensor>& tensors,
                           ExecMode mode, bool poison_outputs) const {
  const Node& n = g.node(nid);
  auto in = [&](std::size_t i) -> const Tensor& {
    const Tensor& t = tensors[static_cast<std::size_t>(n.inputs[i])];
    GAUDI_CHECK(mode == ExecMode::kTiming || t.defined(),
                "functional execution requires a defined input tensor");
    return t;
  };
  auto out_info = [&](std::size_t i) -> const ValueInfo& {
    return g.value(n.outputs[i]);
  };
  auto set_out = [&](std::size_t i, Tensor t) {
    tensors[static_cast<std::size_t>(n.outputs[i])] = std::move(t);
  };
  auto fresh_out = [&](std::size_t i) {
    Tensor t = make_output_tensor(out_info(i), mode, poison_outputs);
    set_out(i, t);
    return t;
  };
  // For kernels that legitimately read-accumulate into their own output
  // (embedding grad scatter-adds rows): poisoning would turn the honest
  // zero-initialized accumulator into NaNs.
  auto fresh_zero_out = [&](std::size_t i) {
    Tensor t = make_output_tensor(out_info(i), mode, /*poison=*/false);
    set_out(i, t);
    return t;
  };

  NodeExec exec;

  // Helper that runs a TPC kernel and accumulates duration/flops (the
  // cross-entropy mean launches two kernels).
  auto run_tpc = [&](const tpc::Kernel& k) {
    const tpc::RunResult r = cluster_.run(k, mode);
    exec.duration += r.duration;
    exec.flops += r.flops;
  };

  switch (n.kind) {
    case OpKind::kMatMul: {
      mme::GemmShape gs = mme::MmeEngine::shape_of(
          g.value(n.inputs[0]).shape, g.value(n.inputs[1]).shape, n.attrs.trans_a,
          n.attrs.trans_b);
      if (g.value(n.inputs[0]).dtype == tensor::DType::BF16 &&
          g.value(n.inputs[1]).dtype == tensor::DType::BF16) {
        gs.dtype = tensor::DType::BF16;
      }
      const mme::MmeRunResult r = mme_.cost(gs);
      exec.duration = r.duration;
      exec.flops = r.flops;
      if (mode == ExecMode::kFunctional) {
        tensor::Tensor y =
            mme_.execute(in(0), in(1), n.attrs.trans_a, n.attrs.trans_b);
        if (n.inputs.size() == 3) {
          // Bias add fused into the MME drain: no extra simulated time.
          const std::span<const float> bias = in(2).f32();
          const std::span<float> yv = y.f32();
          for (std::size_t row = 0; row < yv.size(); row += bias.size()) {
            for (std::size_t j = 0; j < bias.size(); ++j) yv[row + j] += bias[j];
          }
        }
        set_out(0, std::move(y));
      } else {
        set_out(0, make_output_tensor(out_info(0), mode, poison_outputs));
      }
      return exec;
    }

    case OpKind::kReshape: {
      // Metadata only: alias the input storage under the new shape.
      const Tensor& x = in(0);
      if (mode == ExecMode::kFunctional) {
        set_out(0, x.reshape(out_info(0).shape));
      } else {
        set_out(0, Tensor::phantom(out_info(0).shape, out_info(0).dtype));
      }
      return exec;
    }

    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
    case OpKind::kMaxEw: {
      tpc::BinaryKind bk = tpc::BinaryKind::kAdd;
      if (n.kind == OpKind::kSub) bk = tpc::BinaryKind::kSub;
      if (n.kind == OpKind::kMul) bk = tpc::BinaryKind::kMul;
      if (n.kind == OpKind::kDiv) bk = tpc::BinaryKind::kDiv;
      if (n.kind == OpKind::kMaxEw) bk = tpc::BinaryKind::kMax;
      run_tpc(tpc::BinaryEwKernel(bk, in(0), in(1), fresh_out(0)));
      return exec;
    }

    case OpKind::kAddScalar:
    case OpKind::kSubScalar:
    case OpKind::kRsubScalar:
    case OpKind::kMulScalar: {
      tpc::ScalarKind sk = tpc::ScalarKind::kAddS;
      if (n.kind == OpKind::kSubScalar) sk = tpc::ScalarKind::kSubS;
      if (n.kind == OpKind::kRsubScalar) sk = tpc::ScalarKind::kRsubS;
      if (n.kind == OpKind::kMulScalar) sk = tpc::ScalarKind::kMulS;
      run_tpc(tpc::ScalarEwKernel(sk, in(0), n.attrs.scalar, fresh_out(0)));
      return exec;
    }

    case OpKind::kUnary:
      run_tpc(tpc::UnaryEwKernel(n.attrs.unary, in(0), fresh_out(0), n.attrs.alpha));
      return exec;
    case OpKind::kUnaryGrad:
      run_tpc(tpc::UnaryGradKernel(n.attrs.unary, in(0), in(1), fresh_out(0),
                                   n.attrs.alpha));
      return exec;

    case OpKind::kGlu:
      run_tpc(tpc::GluKernel(in(0), fresh_out(0)));
      return exec;
    case OpKind::kGluGrad:
      run_tpc(tpc::GluGradKernel(in(0), in(1), fresh_out(0)));
      return exec;

    case OpKind::kDropout:
      run_tpc(tpc::DropoutKernel(in(0), fresh_out(0), n.attrs.p, n.attrs.seed));
      return exec;

    case OpKind::kSoftmax:
      run_tpc(tpc::SoftmaxKernel(in(0), fresh_out(0)));
      return exec;
    case OpKind::kSoftmaxGrad:
      run_tpc(tpc::SoftmaxGradKernel(in(0), in(1), fresh_out(0)));
      return exec;

    case OpKind::kLayerNorm: {
      Tensor y = fresh_out(0);
      Tensor mean = fresh_out(1);
      Tensor rstd = fresh_out(2);
      run_tpc(tpc::LayerNormKernel(in(0), in(1), in(2), y, mean, rstd, n.attrs.eps));
      return exec;
    }
    case OpKind::kLayerNormInputGrad:
      run_tpc(tpc::LayerNormInputGradKernel(in(0), in(1), in(2), in(3), in(4),
                                            fresh_out(0)));
      return exec;
    case OpKind::kLayerNormParamGrad: {
      Tensor dgamma = fresh_out(0);
      Tensor dbeta = fresh_out(1);
      run_tpc(tpc::LayerNormParamGradKernel(in(0), in(1), in(2), in(3), dgamma,
                                            dbeta));
      return exec;
    }

    case OpKind::kReduceSum:
    case OpKind::kReduceMax:
    case OpKind::kReduceMean: {
      tpc::ReduceKind rk = tpc::ReduceKind::kSum;
      if (n.kind == OpKind::kReduceMax) rk = tpc::ReduceKind::kMax;
      if (n.kind == OpKind::kReduceMean) rk = tpc::ReduceKind::kMean;
      run_tpc(tpc::ReduceLastDimKernel(rk, in(0), fresh_out(0)));
      return exec;
    }

    case OpKind::kBroadcastLast:
      run_tpc(tpc::BroadcastLastKernel(in(0), fresh_out(0)));
      return exec;

    case OpKind::kAddRowvec:
      run_tpc(tpc::RowvecKernel(tpc::RowvecKernel::Op::kAdd, in(0), in(1),
                                fresh_out(0)));
      return exec;
    case OpKind::kMulRowvec:
      run_tpc(tpc::RowvecKernel(tpc::RowvecKernel::Op::kMul, in(0), in(1),
                                fresh_out(0)));
      return exec;

    case OpKind::kColumnSum: {
      // Kernel expects [R, D]; flatten leading dims.
      const ValueInfo& xi = g.value(n.inputs[0]);
      const std::int64_t d = xi.shape[xi.shape.rank() - 1];
      Tensor x2 = in(0).defined()
                      ? in(0).reshape(tensor::Shape{{xi.shape.numel() / d, d}})
                      : Tensor::phantom(tensor::Shape{{xi.shape.numel() / d, d}});
      run_tpc(tpc::ColumnSumKernel(x2, fresh_out(0)));
      return exec;
    }

    case OpKind::kFill:
      run_tpc(tpc::FillKernel(fresh_out(0), n.attrs.scalar));
      return exec;

    case OpKind::kTranspose:
      run_tpc(tpc::TransposeLast2Kernel(in(0), fresh_out(0)));
      return exec;
    case OpKind::kSwapAxes12:
      run_tpc(tpc::SwapAxes12Kernel(in(0), fresh_out(0)));
      return exec;
    case OpKind::kAddMask2D:
      run_tpc(tpc::AddMask2DKernel(in(0), in(1), fresh_out(0)));
      return exec;
    case OpKind::kConcatRows:
      run_tpc(tpc::ConcatRowsKernel(in(0), in(1), fresh_out(0)));
      return exec;
    case OpKind::kSliceRows:
      run_tpc(tpc::SliceRowsKernel(in(0), fresh_out(0), n.attrs.dim));
      return exec;

    case OpKind::kEmbedding:
      run_tpc(tpc::EmbeddingGatherKernel(in(0), in(1), fresh_out(0)));
      return exec;
    case OpKind::kEmbeddingGrad:
      run_tpc(tpc::EmbeddingGradKernel(in(0), in(1), fresh_zero_out(0)));
      return exec;

    case OpKind::kCrossEntropyMean: {
      // Fused: per-row losses then a mean reduction to a scalar.
      const std::int64_t rows = g.value(n.inputs[0]).shape[0];
      Tensor per_row = mode == ExecMode::kFunctional
                           ? Tensor::zeros(tensor::Shape{{1, rows}})
                           : Tensor::phantom(tensor::Shape{{1, rows}});
      run_tpc(tpc::CrossEntropyKernel(in(0), in(1), per_row));
      run_tpc(tpc::ReduceLastDimKernel(tpc::ReduceKind::kMean, per_row,
                                       fresh_out(0)));
      return exec;
    }
    case OpKind::kCrossEntropyGrad:
      run_tpc(tpc::CrossEntropyGradKernel(in(0), in(1), fresh_out(0),
                                          n.attrs.scale));
      return exec;

    case OpKind::kSgdUpdate: {
      const bool with_momentum = n.inputs.size() == 3;
      Tensor param_out = fresh_out(0);
      Tensor vel = with_momentum ? in(2) : Tensor{};
      Tensor vel_out = with_momentum ? fresh_out(1) : Tensor{};
      run_tpc(tpc::SgdUpdateKernel(in(0), in(1), param_out, vel, vel_out,
                                   n.attrs.lr,
                                   with_momentum ? n.attrs.beta1 : 0.0f));
      return exec;
    }
    case OpKind::kCast:
      run_tpc(tpc::CastKernel(in(0), fresh_out(0)));
      return exec;

    case OpKind::kAdamUpdate: {
      Tensor param_out = fresh_out(0);
      Tensor m_out = fresh_out(1);
      Tensor v_out = fresh_out(2);
      run_tpc(tpc::AdamUpdateKernel(in(0), in(1), in(2), in(3), param_out, m_out,
                                    v_out, n.attrs.lr, n.attrs.beta1,
                                    n.attrs.beta2, n.attrs.eps, n.attrs.step));
      return exec;
    }
  }
  throw sim::InternalError("unhandled op kind in executor");
}

NodeExec NodeExecutor::run(const Graph& g, const FusedChainSpec& chain,
                           std::vector<tensor::Tensor>& tensors, ExecMode mode,
                           bool poison_outputs) const {
  tensors[static_cast<std::size_t>(chain.output)] =
      make_output_tensor(g.value(chain.output), mode, poison_outputs);
  const FusedChainKernel kernel(chain, tensors);
  const tpc::RunResult r = cluster_.run(kernel, mode);
  NodeExec exec;
  exec.duration = r.duration;
  exec.flops = r.flops;
  exec.label = chain.label;
  return exec;
}

}  // namespace gaudi::graph
