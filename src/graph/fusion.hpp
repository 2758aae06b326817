// Element-wise fusion pass.
//
// SynapseAI's graph compiler fuses chains of element-wise TPC ops into one
// kernel so intermediates stay in registers instead of round-tripping
// through global memory, and only one kernel launch is paid.  This pass
// finds maximal single-consumer chains of flat element-wise ops and
// provides a fused kernel that executes a whole chain per vector; the graph
// compiler applies it when CompileOptions::fuse_elementwise is set, and the
// fusion ablation bench quantifies the win.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "tpc/kernel.hpp"

namespace gaudi::graph {

/// One fusable chain, in program order (length >= 2).
struct FusionGroup {
  std::vector<NodeId> nodes;

  [[nodiscard]] NodeId first() const { return nodes.front(); }
  [[nodiscard]] NodeId last() const { return nodes.back(); }
};

struct FusionPlan {
  std::vector<FusionGroup> groups;
  /// Per node: index into `groups`, or -1 when unfused.
  std::vector<std::int32_t> group_of;
  /// Values produced and consumed strictly inside a group — they never
  /// materialize in device memory.
  std::vector<bool> internal_value;

  [[nodiscard]] bool is_group_tail(NodeId n) const;
};

/// True for ops the fuser may place inside a chain: flat element-wise ops
/// whose output has the same element count as every input.
[[nodiscard]] bool is_fusible_elementwise(OpKind kind);

/// Builds the fusion plan for `g` (chains of length >= 2 only).
[[nodiscard]] FusionPlan plan_fusion(const Graph& g);

/// One link of a pre-bound chain: which op to apply to the chain register,
/// and where its external operand (if any) comes from.
struct FusedChainStep {
  OpKind kind{};
  OpAttrs attrs{};
  /// External operand value, kInvalidValue when the step consumes only the
  /// chain register.
  ValueId external = kInvalidValue;
  /// Whether the chain value is the *second* operand of a binary op.
  bool chain_is_rhs = false;

  [[nodiscard]] bool has_external() const { return external != kInvalidValue; }
};

/// Compile-time description of a whole fusion group, derived once by the
/// graph compiler and bound to a run's tensors when the tail executes —
/// so the per-run loop neither re-plans the chain nor re-walks the graph.
struct FusedChainSpec {
  ValueId chain_input = kInvalidValue;
  ValueId output = kInvalidValue;
  NodeId tail = -1;
  std::int64_t numel = 0;
  std::vector<FusedChainStep> steps;
  std::string label;
};

/// Derives the chain spec for one fusion group.
[[nodiscard]] FusedChainSpec build_chain_spec(const Graph& g,
                                              const FusionGroup& group);

/// Executes an entire fusion group: external operands are loaded from
/// global memory, the chain value flows through vector registers, only the
/// tail result is stored.  `tensors` is indexed by ValueId; internal values
/// need no storage.
class FusedChainKernel final : public tpc::KernelBody<FusedChainKernel> {
 public:
  /// Binds a compile-time chain spec to this run's tensors.
  FusedChainKernel(const FusedChainSpec& spec,
                   const std::vector<tensor::Tensor>& tensors);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] tpc::IndexSpace index_space() const override;
  template <class Ctx>
  void body(Ctx& ctx, const tpc::Member& m) const;
  [[nodiscard]] std::uint64_t flop_count() const override;

 private:
  struct Step {
    OpKind kind{};
    OpAttrs attrs{};
    /// External operand (empty span for chain-register operands), and
    /// whether the chain value is the *second* operand of a binary op.
    tensor::Tensor external;
    bool chain_is_rhs = false;
    bool has_external = false;
  };

  std::vector<Step> steps_;
  tensor::Tensor chain_input_;
  tensor::Tensor output_;
  std::int64_t numel_ = 0;
  std::string label_;
};

}  // namespace gaudi::graph
