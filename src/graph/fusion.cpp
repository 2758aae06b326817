#include "graph/fusion.hpp"

#include <algorithm>
#include <cmath>

namespace gaudi::graph {

bool is_fusible_elementwise(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
    case OpKind::kMaxEw:
    case OpKind::kAddScalar:
    case OpKind::kSubScalar:
    case OpKind::kRsubScalar:
    case OpKind::kMulScalar:
    case OpKind::kUnary:
      return true;
    default:
      return false;
  }
}

bool FusionPlan::is_group_tail(NodeId n) const {
  const std::int32_t gi = group_of[static_cast<std::size_t>(n)];
  return gi >= 0 && groups[static_cast<std::size_t>(gi)].last() == n;
}

FusionPlan plan_fusion(const Graph& g) {
  FusionPlan plan;
  plan.group_of.assign(g.num_nodes(), -1);
  plan.internal_value.assign(g.num_values(), false);

  auto single_consumer = [&](ValueId v) -> NodeId {
    const ValueInfo& info = g.value(v);
    if (info.is_output || info.consumers.size() != 1) return -1;
    return info.consumers.front();
  };

  for (NodeId n = 0; n < static_cast<NodeId>(g.num_nodes()); ++n) {
    if (plan.group_of[static_cast<std::size_t>(n)] >= 0) continue;
    if (!is_fusible_elementwise(g.node(n).kind)) continue;

    FusionGroup group;
    group.nodes.push_back(n);
    NodeId cur = n;
    for (;;) {
      const ValueId out = g.node(cur).outputs[0];
      const NodeId next = single_consumer(out);
      if (next < 0) break;
      const Node& m = g.node(next);
      if (!is_fusible_elementwise(m.kind)) break;
      if (plan.group_of[static_cast<std::size_t>(next)] >= 0) break;
      if (g.value(m.outputs[0]).shape.numel() != g.value(out).shape.numel()) break;
      group.nodes.push_back(next);
      cur = next;
    }
    if (group.nodes.size() < 2) continue;

    const auto gi = static_cast<std::int32_t>(plan.groups.size());
    for (std::size_t i = 0; i < group.nodes.size(); ++i) {
      plan.group_of[static_cast<std::size_t>(group.nodes[i])] = gi;
      if (i + 1 < group.nodes.size()) {
        // Output feeds the next chain op only: never materialized.
        plan.internal_value[static_cast<std::size_t>(
            g.node(group.nodes[i]).outputs[0])] = true;
      }
    }
    plan.groups.push_back(std::move(group));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// FusedChainSpec / FusedChainKernel
// ---------------------------------------------------------------------------

FusedChainSpec build_chain_spec(const Graph& g, const FusionGroup& group) {
  GAUDI_CHECK(group.nodes.size() >= 2, "fusion group must have >= 2 nodes");

  FusedChainSpec spec;
  const Node& head = g.node(group.first());
  spec.chain_input = head.inputs[0];
  spec.numel = g.value(head.outputs[0]).shape.numel();
  spec.tail = group.last();
  spec.output = g.node(group.last()).outputs[0];

  spec.label = "fused[";
  ValueId chain_value = kInvalidValue;
  for (std::size_t i = 0; i < group.nodes.size(); ++i) {
    const Node& n = g.node(group.nodes[i]);
    GAUDI_CHECK(is_fusible_elementwise(n.kind), "non-fusible op in fusion group");
    FusedChainStep step;
    step.kind = n.kind;
    step.attrs = n.attrs;
    if (i == 0) {
      // Head: operand 0 is the chain input; a second operand is external.
      if (n.inputs.size() == 2) step.external = n.inputs[1];
    } else {
      GAUDI_CHECK(std::find(n.inputs.begin(), n.inputs.end(), chain_value) !=
                      n.inputs.end(),
                  "fusion chain link broken");
      if (n.inputs.size() == 2) {
        const bool chain_is_first = n.inputs[0] == chain_value;
        const ValueId ext = chain_is_first ? n.inputs[1] : n.inputs[0];
        // x op x (both operands are the chain value) needs no external load.
        if (ext != chain_value) {
          step.external = ext;
          step.chain_is_rhs = !chain_is_first;
        }
      }
    }
    spec.steps.push_back(step);
    chain_value = n.outputs[0];
    spec.label += std::string(i ? "+" : "") + std::string(op_kind_name(n.kind));
  }
  spec.label += "]";
  return spec;
}

FusedChainKernel::FusedChainKernel(const FusedChainSpec& spec,
                                   const std::vector<tensor::Tensor>& tensors)
    : chain_input_(tensors[static_cast<std::size_t>(spec.chain_input)]),
      output_(tensors[static_cast<std::size_t>(spec.output)]),
      numel_(spec.numel),
      label_(spec.label) {
  steps_.reserve(spec.steps.size());
  for (const FusedChainStep& s : spec.steps) {
    Step step;
    step.kind = s.kind;
    step.attrs = s.attrs;
    step.chain_is_rhs = s.chain_is_rhs;
    if (s.has_external()) {
      step.external = tensors[static_cast<std::size_t>(s.external)];
      step.has_external = true;
    }
    steps_.push_back(std::move(step));
  }
}

std::string FusedChainKernel::name() const { return label_; }

tpc::IndexSpace FusedChainKernel::index_space() const {
  // Same 512-element granularity as the library element-wise kernels.
  return tpc::IndexSpace{{(numel_ + 511) / 512}};
}

template <class Ctx>
void FusedChainKernel::body(Ctx& ctx, const tpc::Member& m) const {
  using Vec = typename Ctx::Vec;
  const auto in = tpc::ro(chain_input_);
  auto out = tpc::rw(output_);
  const std::int64_t begin = m.linear * 512;
  const std::int64_t end = std::min(numel_, begin + 512);

  for (std::int64_t off = begin; off < end; off += tpc::kLanes) {
    const int count = static_cast<int>(std::min<std::int64_t>(tpc::kLanes, end - off));
    Vec reg = ctx.v_ld_g(in, off, count);

    for (const Step& s : steps_) {
      Vec ext{};
      if (s.has_external) {
        ext = ctx.v_ld_g(tpc::ro(s.external), off, count);
      }
      const Vec& a = s.chain_is_rhs ? ext : reg;
      const Vec& b = s.chain_is_rhs ? reg : (s.has_external ? ext : reg);
      switch (s.kind) {
        case OpKind::kAdd: reg = ctx.v_add(a, b); break;
        case OpKind::kSub: reg = ctx.v_sub(a, b); break;
        case OpKind::kMul: reg = ctx.v_mul(a, b); break;
        case OpKind::kDiv: reg = ctx.v_mul(a, ctx.v_recip(b)); break;
        case OpKind::kMaxEw: reg = ctx.v_max(a, b); break;
        case OpKind::kAddScalar: reg = ctx.v_add_s(reg, s.attrs.scalar); break;
        case OpKind::kSubScalar: reg = ctx.v_add_s(reg, -s.attrs.scalar); break;
        case OpKind::kRsubScalar:
          reg = ctx.v_add_s(ctx.v_neg(reg), s.attrs.scalar);
          break;
        case OpKind::kMulScalar: reg = ctx.v_mul_s(reg, s.attrs.scalar); break;
        case OpKind::kUnary:
          switch (s.attrs.unary) {
            case tpc::UnaryKind::kExp: reg = ctx.v_exp(reg); break;
            case tpc::UnaryKind::kLog: reg = ctx.v_log(reg); break;
            case tpc::UnaryKind::kSqrt: reg = ctx.v_sqrt(reg); break;
            case tpc::UnaryKind::kSquare: reg = ctx.v_mul(reg, reg); break;
            case tpc::UnaryKind::kRecip: reg = ctx.v_recip(reg); break;
            case tpc::UnaryKind::kRelu:
              reg = ctx.v_max(reg, ctx.v_mov(0.0f));
              break;
            case tpc::UnaryKind::kLeakyRelu:
              reg = ctx.v_sel_gtz(reg, reg, ctx.v_mul_s(reg, s.attrs.alpha));
              break;
            case tpc::UnaryKind::kElu: reg = ctx.v_elu(reg, s.attrs.alpha); break;
            case tpc::UnaryKind::kGelu: reg = ctx.v_gelu(reg); break;
            case tpc::UnaryKind::kSigmoid: reg = ctx.v_sigmoid(reg); break;
            case tpc::UnaryKind::kTanh: reg = ctx.v_tanh(reg); break;
            case tpc::UnaryKind::kNeg: reg = ctx.v_neg(reg); break;
            case tpc::UnaryKind::kAbs: reg = ctx.v_abs(reg); break;
          }
          break;
        default:
          throw sim::InternalError("non-fusible op reached fused kernel");
      }
    }
    ctx.v_st_g(out, off, reg, count);
  }
}
template void FusedChainKernel::body(tpc::DataContext&, const tpc::Member&) const;
template void FusedChainKernel::body(tpc::CostContext&, const tpc::Member&) const;

std::uint64_t FusedChainKernel::flop_count() const {
  return static_cast<std::uint64_t>(numel_) * steps_.size();
}

}  // namespace gaudi::graph
