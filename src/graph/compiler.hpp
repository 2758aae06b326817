// The graph compiler: an explicit ahead-of-time pass pipeline producing an
// immutable CompiledGraph artifact.
//
// SynapseAI separates compiling a graph (op->engine mapping, fusion, DMA
// insertion, memory planning) from running it; a deployed model is compiled
// once and executed for every batch/token.  This module is that split:
//
//   engine mapping      -> Engine per node (paper Table 1)
//   element-wise fusion -> chains collapsed into pre-bound FusedChainSpecs
//   DMA insertion       -> per-value source-engine sets + a count of the
//                          deduplicated cross-engine transfers
//   liveness analysis   -> def / last-use step per device buffer
//   memory planning     -> static byte offsets with reuse (memory_planner)
//
// `Runtime::run(const CompiledGraph&, feeds)` then executes the artifact
// without re-deriving any of this; the per-run loop makes no mapping,
// fusion, or memory-planning decisions.  Program order is node-id order:
// `Graph::add_op` accepts only values that already exist and nodes are
// append-only, so every node's producers precede it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/fusion.hpp"
#include "graph/graph.hpp"
#include "memory/memory_planner.hpp"
#include "sim/chip_config.hpp"

namespace gaudi::graph {

struct CompileOptions {
  /// Apply the element-wise fusion pass (see graph/fusion.hpp).
  bool fuse_elementwise = false;
};

/// Where compile time went and what the passes decided — surfaced by the
/// CLI `--compile-stats` flag.
struct CompileStats {
  struct Pass {
    std::string name;
    double microseconds = 0.0;
  };
  std::vector<Pass> passes;  ///< pipeline order

  std::size_t fusion_groups = 0;
  std::size_t fused_nodes = 0;
  std::size_t planned_dmas = 0;
  std::size_t planned_buffers = 0;
  /// Sum of all planned buffer sizes (what a reuse-free layout would need).
  std::size_t total_bytes = 0;
  /// Liveness-weighted occupancy peak; equals the dynamic allocator's peak.
  std::size_t peak_bytes = 0;
  /// Static arena extent (>= peak; the excess is first-fit fragmentation).
  std::size_t arena_bytes = 0;

  [[nodiscard]] std::size_t reuse_saved_bytes() const {
    return total_bytes > arena_bytes ? total_bytes - arena_bytes : 0;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Static placement of one value's device bytes.
struct ValuePlacement {
  /// False for values that never own device bytes: fusion-internal chain
  /// links and reshape outputs (aliases).
  bool has_buffer = false;
  std::size_t offset = 0;
  std::size_t bytes = 0;
  /// Liveness interval in node steps (memory::BufferInterval::kPreGraph for
  /// inputs/params, kNeverFreed for buffers that survive the run).
  std::int64_t def = memory::BufferInterval::kPreGraph;
  std::int64_t freed_at = memory::BufferInterval::kNeverFreed;
};

/// The immutable compilation artifact.  Owns a copy of the graph so it can
/// outlive the builder; treat every member as read-only after compile.
struct CompiledGraph {
  Graph graph;
  sim::ChipConfig config;
  CompileOptions options;

  /// Post-fusion engine per node: fused non-tail links are demoted to
  /// Engine::kNone, everything else follows engine_of(OpKind).
  std::vector<Engine> node_engine;
  FusionPlan fusion;
  /// One pre-bound chain spec per fusion group (parallel to fusion.groups).
  std::vector<FusedChainSpec> chains;
  /// Per-value bitmask of engines whose buffers back the value (unioned
  /// through metadata nodes); the scheduler consumes this instead of
  /// re-deriving producers.
  std::vector<std::uint8_t> value_sources;
  /// Per-value static memory plan (indexed by ValueId).
  std::vector<ValuePlacement> placements;

  CompileStats stats;
};

/// Runs the full pass pipeline.  Throws sim::ResourceExhausted when the
/// planned peak exceeds the HBM capacity.
[[nodiscard]] CompiledGraph compile_graph(const Graph& g,
                                          const sim::ChipConfig& cfg,
                                          const CompileOptions& opts = {});

}  // namespace gaudi::graph
