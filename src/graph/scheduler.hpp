// Engine-level schedulers.
//
// Two policies model the two compiler behaviours the paper contrasts:
//
//  * kBarrier — what the traces show SynapseAI doing on these graphs: ops
//    issue in program order and every engine switch acts as a full barrier,
//    so MME and TPC never overlap ("There is no good overlap between MME and
//    TPC", §3.4; "Graph Compiler does not detect this independence", §3.3).
//
//  * kOverlap — the independence-aware schedule the paper says the compiler
//    *should* produce: dependency-driven list scheduling with in-order issue
//    per engine, which lets e.g. FAVOR's q′ and k′ branches overlap MME and
//    TPC work.
//
// Both insert DMA transfers on MME<->TPC edges (data moves through shared
// memory via the DMA engine, paper §2.1) and a HOST stall for ops flagged
// `requires_recompile` (the paper's explanation of GLU's blank area).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/executor.hpp"
#include "graph/graph.hpp"
#include "graph/trace.hpp"
#include "sim/chip_config.hpp"
#include "sim/fault.hpp"

namespace gaudi::graph {

enum class SchedulePolicy : std::uint8_t {
  kBarrier,  ///< observed SynapseAI behaviour: engine switches serialize
  kOverlap,  ///< independence-aware: dataflow-limited overlap
};

[[nodiscard]] const char* schedule_policy_name(SchedulePolicy p);

/// Places node executions on engine timelines and returns the trace.
/// `execs` must be indexed by NodeId (one entry per graph node).
///
/// `faults` (optional) injects deterministic hardware faults into the
/// schedule instead of letting them silently mistime it: a straggling TPC
/// kernel stretches its compute event and nests a kStall over the extension,
/// and a timed-out DMA re-issues the transfer as extra kDma attempts with
/// increasing `retry` indices separated by exponential backoff.  A null
/// injector (the default) takes the exact pre-fault code path, so fault-free
/// traces are bit-identical to earlier builds.
[[nodiscard]] Trace schedule(const Graph& g, const std::vector<NodeExec>& execs,
                             const sim::ChipConfig& cfg, SchedulePolicy policy,
                             const sim::FaultInjector* faults = nullptr);

struct CompiledGraph;

/// Plan-driven variant: per-value source-engine sets come from the compiled
/// artifact's DMA-insertion pass instead of being re-derived, so the
/// per-run loop makes no mapping decisions.  Produces the same trace as the
/// graph-only overload (the demotion fuzz's reference) for the execs the
/// compiled runtime emits.
[[nodiscard]] Trace schedule(const CompiledGraph& cg,
                             const std::vector<NodeExec>& execs,
                             SchedulePolicy policy,
                             const sim::FaultInjector* faults = nullptr);

}  // namespace gaudi::graph
