// Graph runtime: the execute side of the compile/execute split.
//
// `Runtime::compile` runs the ahead-of-time pass pipeline (engine mapping,
// element-wise fusion, DMA insertion, liveness, static memory planning —
// see graph/compiler.hpp) and returns an immutable CompiledGraph.
// `Runtime::run(const CompiledGraph&, feeds)` is the thin run-many loop.  In
// node-id order it runs each launch, an unfused node or (at a chain's tail)
// a whole fused chain, through one path: verify the operands the launch
// reads, execute it (real numerics in functional mode; phantom tensors in
// timing mode, where each TPC kernel's cost comes from the process-wide
// TimingMemo after its first launch), set its engine from the compiled
// mapping and its bytes, retire the buffers it allocated under the guard
// and fault injection, and release what it read.  The loop replays the dynamic HBM
// allocator as a cross-check of the static memory plan, schedules the
// launch durations onto engine timelines under the selected policy, and
// returns the hardware trace plus any requested outputs.  Both modes take
// this one path, with the same guard, fault and memory accounting.  The
// single-graph `run(const Graph&, ...)` overload compiles and runs in one
// call for one-shot callers.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/compiler.hpp"
#include "graph/executor.hpp"
#include "graph/graph.hpp"
#include "graph/scheduler.hpp"
#include "graph/trace.hpp"
#include "memory/device_memory.hpp"
#include "sim/chip_config.hpp"
#include "sim/numerics.hpp"

namespace gaudi::graph {

struct RunOptions {
  tpc::ExecMode mode = tpc::ExecMode::kFunctional;
  SchedulePolicy policy = SchedulePolicy::kBarrier;
  std::uint64_t seed = 0x6A0D1;
  /// Run TraceValidator on the scheduled trace (plus the memory-plan
  /// invariants on the compiled artifact) and throw sim::InternalError on
  /// any violation (see graph/validate.hpp).  Also enabled globally by the
  /// GAUDI_VALIDATE environment variable.
  bool validate = false;
  /// Deterministic fault injection for the schedule (see sim/fault.hpp):
  /// TPC stragglers stretch their span with an explicit nested kStall, and
  /// timed-out DMAs re-issue with backoff as extra retry attempts.  Null
  /// (the default) falls back to the process-wide injector configured by
  /// GAUDI_FAULTS / GAUDI_FAULT_SEED; when that is absent too, the schedule
  /// is bit-identical to a fault-free build.
  const sim::FaultInjector* faults = nullptr;
  /// Numerics guard (see sim/numerics.hpp).  Unset falls back to the
  /// GAUDI_GUARD environment variable.  Under kWarn/kTrap the guard retires
  /// every buffer a launch allocates (a reshape's view owns none): a
  /// functional run sweeps it for NaN/Inf/denormals, checksums it to catch
  /// silent data corruption between ops, and poison-fills fresh outputs
  /// with a signaling-NaN pattern so reads-before-writes surface; both
  /// modes bill the sweep as a nested kGuard trace span and count its
  /// elements as coverage.  kTrap throws sim::NumericsError at the first
  /// anomaly; kWarn collects them in ProfileResult::anomalies.  kOff keeps
  /// traces and numerics byte-identical to a guard-free build.
  std::optional<sim::NumericsPolicy> guard{};
  /// Epoch mixed into SDC bit-flip fault sites so multi-step callers (the
  /// training loop) draw fresh corruption sites each step.
  std::uint64_t fault_epoch = 0;
  /// Test hook: right after this value's producer retires (and its checksum
  /// is recorded), overwrite element 0 with a quiet NaN — a deterministic
  /// stand-in for an SDC hit on exactly this buffer.
  ValueId corrupt_value = kInvalidValue;
};

/// One anomaly detected by the numerics guard (functional runs only).
struct NumericsAnomaly {
  enum class Kind {
    kNonFinite,  ///< NaN/Inf appeared in an op's swept output
    kSdc,        ///< a live buffer's checksum changed between ops
  };
  Kind kind = Kind::kNonFinite;
  /// Op at which the anomaly was detected (-1: end-of-run output audit).
  NodeId node = -1;
  /// Offending value (the non-finite output, or the corrupted buffer).
  ValueId value = kInvalidValue;
  sim::NumericsStats stats{};
  /// Human-readable report naming the offending node, its producers, and the
  /// feed-to-fault contamination path in topological order.
  std::string report;
};

/// One bit flip the fault injector landed in a live buffer (kSdcBitFlip).
struct SdcInjection {
  NodeId node = -1;           ///< producer whose retired output was hit
  ValueId value = kInvalidValue;
  std::int64_t element = 0;   ///< flat element index
  std::uint32_t bit = 0;      ///< flipped bit position within the element
};

struct ProfileResult {
  Trace trace;
  sim::SimTime makespan{};
  /// Graph outputs (functional mode only; phantom tensors otherwise).
  std::unordered_map<ValueId, tensor::Tensor> outputs;
  /// Peak simulated HBM occupancy — the static plan's peak, which equals
  /// the dynamic allocator's observed peak (cross-checked when validating).
  std::size_t hbm_peak_bytes = 0;
  std::size_t hbm_capacity_bytes = 0;
  /// Per-node execution records (indexed by NodeId).
  std::vector<NodeExec> node_execs;
  /// Guard policy the run resolved (RunOptions::guard or GAUDI_GUARD).
  sim::NumericsPolicy guard_policy = sim::NumericsPolicy::kOff;
  /// Anomalies in detection order (kWarn collects every origination; kTrap
  /// throws at the first, so trapped runs never return this).
  std::vector<NumericsAnomaly> anomalies;
  /// Bit flips the fault injector landed in buffers this run allocated —
  /// recorded whether or not the guard was on, so tests can cross-check
  /// detection against injection.
  std::vector<SdcInjection> sdc_injections;
  /// Merged numerics stats over every buffer the guard retired: full sweeps
  /// in functional mode, element coverage (`count`) alone in timing mode,
  /// the same count in both.  Zero in unguarded runs.
  sim::NumericsStats numerics{};
};

class Runtime {
 public:
  explicit Runtime(sim::ChipConfig cfg = sim::ChipConfig::hls1()) : cfg_(cfg) {}

  [[nodiscard]] const sim::ChipConfig& config() const { return cfg_; }

  /// Runs the compiler pass pipeline once; the artifact can be executed any
  /// number of times (and outlives both graph and runtime).
  [[nodiscard]] CompiledGraph compile(const Graph& g,
                                      const CompileOptions& opts = {}) const;

  /// Executes a compiled artifact.  In functional mode every kInput/kParam
  /// value must appear in `feeds`; in timing mode feeds are ignored.
  ProfileResult run(const CompiledGraph& cg,
                    const std::unordered_map<ValueId, tensor::Tensor>& feeds,
                    const RunOptions& opts = {}) const;

  /// Compiles and runs `g` in one call.  Callers that execute a graph
  /// repeatedly should compile once and use the CompiledGraph overload.
  ProfileResult run(const Graph& g,
                    const std::unordered_map<ValueId, tensor::Tensor>& feeds,
                    const RunOptions& opts = {}) const;

 private:
  sim::ChipConfig cfg_;
};

}  // namespace gaudi::graph
