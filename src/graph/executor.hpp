// Per-launch execution: dispatches each graph op, or a whole fused chain,
// to its engine's model.
//
// TPC ops instantiate kernels from the kernel library and run them on the
// cluster (functional or timing mode); matmuls run on the MME model; a
// fused chain runs as one pre-bound TPC kernel.  The executor produces, for
// every launch, the simulated duration and flops the scheduler places on
// the engine timeline — and, in functional mode, the output tensors.  The
// runtime sets each launch's engine (from the compiled artifact) and bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/fusion.hpp"
#include "graph/graph.hpp"
#include "mme/mme.hpp"
#include "sim/chip_config.hpp"
#include "sim/numerics.hpp"
#include "tensor/tensor.hpp"
#include "tpc/cluster.hpp"

namespace gaudi::graph {

/// Execution outcome of one node.
struct NodeExec {
  Engine engine = Engine::kNone;
  sim::SimTime duration{};
  std::uint64_t flops = 0;
  /// Global-memory traffic: bytes of the launching node's inputs plus
  /// outputs (for roofline analysis); zero for metadata ops.
  std::size_t bytes = 0;
  /// Display label overriding the node's own (used by fused groups).
  std::string label;
  /// Guarded runs only: simulated cost of sweeping/checksumming the buffers
  /// this launch allocated (the scheduler nests it as a kGuard span at the
  /// tail of the exec span), and the sweep's results.  All-zero defaults
  /// keep unguarded schedules byte-identical to pre-guard builds.
  sim::SimTime guard_time{};
  bool has_stats = false;
  sim::NumericsStats stats{};
};

/// Makes an output tensor for one node output: real in functional mode
/// (zeroed, or poison-filled with the signaling-NaN pattern when `poison` is
/// set — guarded runs use this so reads-before-writes trip the sweep),
/// phantom in timing mode.
[[nodiscard]] tensor::Tensor make_output_tensor(const ValueInfo& info,
                                                tpc::ExecMode mode,
                                                bool poison);

class NodeExecutor {
 public:
  NodeExecutor(const sim::ChipConfig& cfg, sim::CounterRng rng)
      : cluster_(cfg.tpc, rng, cfg.memory.hbm_bandwidth_bytes_per_s),
        mme_(cfg.mme) {}

  /// Executes node `n`.  `tensors` is indexed by ValueId; inputs must be
  /// present (real in functional mode, phantom in timing mode); outputs are
  /// created by this call.  `poison_outputs` pre-fills fresh functional
  /// outputs with the signaling-NaN pattern (guarded runs); kernels that
  /// legitimately accumulate into their own zeroed output (embedding grad)
  /// are exempt.
  NodeExec run(const Graph& g, NodeId n, std::vector<tensor::Tensor>& tensors,
               tpc::ExecMode mode, bool poison_outputs = false) const;

  /// Executes a whole fusion group as its pre-bound fused kernel, in one
  /// launch at the group's tail; only the chain's output is created.
  NodeExec run(const Graph& g, const FusedChainSpec& chain,
               std::vector<tensor::Tensor>& tensors, tpc::ExecMode mode,
               bool poison_outputs = false) const;

 private:
  tpc::TpcCluster cluster_;
  mme::MmeEngine mme_;
};

}  // namespace gaudi::graph
