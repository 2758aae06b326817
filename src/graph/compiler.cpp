#include "graph/compiler.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <utility>

namespace gaudi::graph {

namespace {

constexpr std::uint8_t engine_bit(Engine e) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(e));
}

std::string format_bytes(std::size_t bytes) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2)
     << static_cast<double>(bytes) / (1 << 20) << " MB";
  return os.str();
}

// -- Passes -----------------------------------------------------------------

void pass_engine_mapping(CompiledGraph& cg) {
  const Graph& g = cg.graph;
  cg.node_engine.resize(g.num_nodes());
  for (NodeId n = 0; n < static_cast<NodeId>(g.num_nodes()); ++n) {
    cg.node_engine[static_cast<std::size_t>(n)] = engine_of(g.node(n).kind);
  }
}

void pass_fusion(CompiledGraph& cg) {
  const Graph& g = cg.graph;
  if (!cg.options.fuse_elementwise) {
    cg.fusion.group_of.assign(g.num_nodes(), -1);
    cg.fusion.internal_value.assign(g.num_values(), false);
    return;
  }
  cg.fusion = plan_fusion(g);
  cg.chains.reserve(cg.fusion.groups.size());
  for (const FusionGroup& group : cg.fusion.groups) {
    cg.chains.push_back(build_chain_spec(g, group));
    cg.stats.fused_nodes += group.nodes.size();
    // Non-tail links are absorbed into the tail's fused kernel: they run on
    // no engine of their own.
    for (std::size_t i = 0; i + 1 < group.nodes.size(); ++i) {
      cg.node_engine[static_cast<std::size_t>(group.nodes[i])] = Engine::kNone;
    }
  }
  cg.stats.fusion_groups = cg.fusion.groups.size();
}

void pass_dma_insertion(CompiledGraph& cg) {
  const Graph& g = cg.graph;
  cg.value_sources.assign(g.num_values(), 0);
  // Per value, the engines a transfer was already counted toward.
  std::vector<std::uint8_t> counted(g.num_values(), 0);
  for (NodeId nid = 0; nid < static_cast<NodeId>(g.num_nodes()); ++nid) {
    const Node& n = g.node(nid);
    const Engine eng = cg.node_engine[static_cast<std::size_t>(nid)];
    if (eng == Engine::kNone) {
      // Metadata (and fused non-tail) outputs are views over their inputs:
      // backed by the union of the inputs' source engines.
      std::uint8_t sources = 0;
      for (ValueId v : n.inputs) {
        sources |= cg.value_sources[static_cast<std::size_t>(v)];
      }
      for (ValueId v : n.outputs) {
        cg.value_sources[static_cast<std::size_t>(v)] = sources;
      }
      continue;
    }
    for (ValueId v : n.inputs) {
      const auto vi = static_cast<std::size_t>(v);
      if ((cg.value_sources[vi] & ~engine_bit(eng)) == 0) continue;
      if ((counted[vi] & engine_bit(eng)) != 0) continue;
      counted[vi] |= engine_bit(eng);
      ++cg.stats.planned_dmas;
    }
    for (ValueId v : n.outputs) {
      cg.value_sources[static_cast<std::size_t>(v)] = engine_bit(eng);
    }
  }
}

void pass_liveness(CompiledGraph& cg) {
  const Graph& g = cg.graph;
  // A fused chain reads every external operand when its tail launches, so a
  // value consumed by a mid-chain link stays live until the group's tail.
  const auto consume_step = [&cg](NodeId consumer) -> std::int64_t {
    const std::int32_t gi =
        cg.fusion.group_of[static_cast<std::size_t>(consumer)];
    return gi >= 0 ? cg.fusion.groups[static_cast<std::size_t>(gi)].last()
                   : consumer;
  };
  cg.placements.assign(g.num_values(), ValuePlacement{});
  for (ValueId v = 0; v < static_cast<ValueId>(g.num_values()); ++v) {
    const ValueInfo& info = g.value(v);
    ValuePlacement& p = cg.placements[static_cast<std::size_t>(v)];
    p.bytes = info.nbytes();
    if (info.role != ValueRole::kIntermediate) {
      // Inputs and parameters are resident before the first node and are
      // never freed.
      p.has_buffer = true;
      continue;
    }
    p.def = info.producer;
    // Fusion-internal chain links live in vector registers; reshape outputs
    // alias their input's storage.  Neither owns device bytes.
    if (cg.fusion.internal_value[static_cast<std::size_t>(v)]) continue;
    if (g.node(info.producer).kind == OpKind::kReshape) continue;
    p.has_buffer = true;
    if (info.is_output) continue;  // kept alive until the end of the run
    // Freed by the step that consumes it last — or immediately by its
    // producer when nothing consumes it.
    if (info.consumers.empty()) {
      p.freed_at = info.producer;
    } else {
      std::int64_t last = -1;
      for (const NodeId c : info.consumers) {
        last = std::max(last, consume_step(c));
      }
      p.freed_at = last;
    }
  }
}

void pass_memory_planning(CompiledGraph& cg) {
  const Graph& g = cg.graph;
  // Intervals in the dynamic allocator's order: inputs/params in ValueId
  // order before the first node, then each node's outputs (ascending
  // ValueIds by construction).
  std::vector<memory::BufferInterval> intervals;
  std::vector<ValueId> interval_value;
  for (ValueId v = 0; v < static_cast<ValueId>(g.num_values()); ++v) {
    const ValuePlacement& p = cg.placements[static_cast<std::size_t>(v)];
    if (!p.has_buffer) continue;
    memory::BufferInterval iv;
    iv.def = p.def;
    iv.free = p.freed_at;
    iv.bytes = p.bytes;
    iv.tag = g.value(v).name;
    intervals.push_back(std::move(iv));
    interval_value.push_back(v);
  }
  const memory::MemoryPlan plan =
      memory::plan_memory(intervals, cg.config.memory.hbm_bytes);
  for (std::size_t i = 0; i < interval_value.size(); ++i) {
    cg.placements[static_cast<std::size_t>(interval_value[i])].offset =
        plan.buffers[i].offset;
  }
  cg.stats.planned_buffers = intervals.size();
  cg.stats.total_bytes = plan.total_bytes;
  cg.stats.peak_bytes = plan.peak_bytes;
  cg.stats.arena_bytes = plan.arena_bytes;
}

}  // namespace

std::string CompileStats::to_string() const {
  std::ostringstream os;
  os << "graph compiler:\n";
  for (const Pass& p : passes) {
    os << "  " << std::left << std::setw(20) << p.name << std::right
       << std::fixed << std::setprecision(1) << std::setw(9) << p.microseconds
       << " us";
    if (p.name == "elementwise-fusion" && fusion_groups > 0) {
      os << "   (" << fusion_groups << " groups, " << fused_nodes << " nodes)";
    }
    if (p.name == "dma-insertion") {
      os << "   (" << planned_dmas << " transfers)";
    }
    if (p.name == "memory-planning") {
      os << "   (" << planned_buffers << " buffers, peak "
         << format_bytes(peak_bytes) << ", arena " << format_bytes(arena_bytes)
         << ", reuse saved " << format_bytes(reuse_saved_bytes()) << ")";
    }
    os << "\n";
  }
  return os.str();
}

CompiledGraph compile_graph(const Graph& g, const sim::ChipConfig& cfg,
                            const CompileOptions& opts) {
  CompiledGraph cg;
  cg.graph = g;
  cg.config = cfg;
  cg.options = opts;

  const auto timed = [&cg](const char* name, auto&& pass) {
    const auto t0 = std::chrono::steady_clock::now();
    pass(cg);
    const auto t1 = std::chrono::steady_clock::now();
    cg.stats.passes.push_back(CompileStats::Pass{
        name,
        std::chrono::duration<double, std::micro>(t1 - t0).count()});
  };

  timed("engine-mapping", pass_engine_mapping);
  timed("elementwise-fusion", pass_fusion);
  timed("dma-insertion", pass_dma_insertion);
  timed("liveness", pass_liveness);
  timed("memory-planning", pass_memory_planning);
  return cg;
}

}  // namespace gaudi::graph
