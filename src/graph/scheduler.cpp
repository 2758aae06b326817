#include "graph/scheduler.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "graph/compiler.hpp"
#include "memory/dma.hpp"

namespace gaudi::graph {

const char* schedule_policy_name(SchedulePolicy p) {
  return p == SchedulePolicy::kBarrier ? "barrier" : "overlap";
}

namespace {

constexpr std::uint8_t engine_bit(Engine e) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(e));
}

/// Engine availability and issue bookkeeping during list scheduling.
struct SchedState {
  sim::SimTime engine_free[kEngineCount]{};  // indexed by Engine
  sim::SimTime global_last_end{};
  Engine last_issued = Engine::kNone;
  bool recompiled = false;

  sim::SimTime& free(Engine e) { return engine_free[static_cast<std::size_t>(e)]; }
};

/// Shared list-scheduling core.  When `static_sources` is non-null (the
/// compiled path), per-value source-engine sets come precomputed from the
/// DMA-insertion pass; otherwise they are derived on the fly while
/// scheduling (the graph-only overload).  Both derivations agree: values are
/// single-assignment, so a value's source set is fixed once its producer
/// issues, and every consumer issues later in program order.
Trace schedule_impl(const Graph& g, const std::vector<NodeExec>& execs,
                    const sim::ChipConfig& cfg, SchedulePolicy policy,
                    const std::vector<std::uint8_t>* static_sources,
                    const sim::FaultInjector* faults) {
  GAUDI_CHECK(execs.size() == g.num_nodes(),
              "scheduler needs one NodeExec per graph node");
  if (faults != nullptr && !faults->enabled()) faults = nullptr;

  Trace trace;
  SchedState st;
  // Monotonic DMA transfer index: the deterministic site for kDmaTimeout
  // draws (program order is stable across runs of the same graph).
  std::uint64_t dma_index = 0;

  // When each value becomes available on its producing engine; and, after a
  // DMA, when it becomes available to a *different* engine.
  std::vector<sim::SimTime> value_ready(g.num_values(), sim::SimTime::zero());
  // Bitmask of engines whose buffers back each value (empty for inputs and
  // params — engines read those straight from HBM, no inter-engine DMA
  // involved).  A metadata op is a view over its inputs, so its outputs can
  // be backed by buffers on *several* engines at once; a consumer needs a
  // DMA whenever any backing engine differs from its own.
  std::vector<std::uint8_t> derived_sources;
  if (static_sources == nullptr) {
    derived_sources.assign(g.num_values(), 0);
  }
  const std::vector<std::uint8_t>& value_sources =
      static_sources ? *static_sources : derived_sources;
  std::uint8_t* mutable_sources =
      static_sources ? nullptr : derived_sources.data();
  // DMA completion per (value, destination engine), deduplicated.
  std::map<std::pair<ValueId, Engine>, sim::SimTime> dma_done;

  const bool barrier = policy == SchedulePolicy::kBarrier;

  auto issue = [&](Engine eng, sim::SimTime ready, sim::SimTime dur,
                   TraceEvent ev) -> sim::SimTime {
    sim::SimTime start = std::max(ready, st.free(eng));
    if (barrier && st.last_issued != Engine::kNone && st.last_issued != eng) {
      start = std::max(start, st.global_last_end);
    }
    const sim::SimTime end = start + dur;
    ev.start = start;
    ev.end = end;
    trace.add(std::move(ev));
    st.free(eng) = end;
    st.global_last_end = std::max(st.global_last_end, end);
    st.last_issued = eng;
    return end;
  };

  for (NodeId nid = 0; nid < static_cast<NodeId>(g.num_nodes()); ++nid) {
    const Node& n = g.node(nid);
    const NodeExec& ex = execs[static_cast<std::size_t>(nid)];

    // Metadata ops: propagate readiness, consume no engine time.  Outputs
    // become ready once every input is, and are backed by the union of the
    // inputs' source engines — tracking only one producing engine dropped
    // required DMAs when inputs came from different engines (e.g. a fused
    // chain link fed by both an MME matmul and a TPC op).
    if (ex.engine == Engine::kNone) {
      sim::SimTime ready = sim::SimTime::zero();
      std::uint8_t sources = 0;
      for (ValueId v : n.inputs) {
        ready = std::max(ready, value_ready[static_cast<std::size_t>(v)]);
        sources |= value_sources[static_cast<std::size_t>(v)];
      }
      for (ValueId v : n.outputs) {
        value_ready[static_cast<std::size_t>(v)] = ready;
        if (mutable_sources) {
          mutable_sources[static_cast<std::size_t>(v)] = sources;
        }
      }
      continue;
    }

    // JIT recompilation stall: the graph compiler halts the device once for
    // an op without first-class backend support (observed for GLU, §3.3).
    // The triggering node cannot start before the stall completes (under
    // kBarrier the engine-switch barrier already enforced this; kOverlap
    // needs the explicit dependency).
    sim::SimTime recompile_done = sim::SimTime::zero();
    if (n.attrs.requires_recompile && !st.recompiled) {
      st.recompiled = true;
      TraceEvent ev;
      ev.engine = Engine::kHost;
      ev.kind = TraceEventKind::kRecompile;
      ev.name = "graph_compiler.recompile(" + n.label + ")";
      ev.node = nid;
      recompile_done = issue(Engine::kHost, st.global_last_end,
                             cfg.compiler.recompile_stall, std::move(ev));
    }

    // Input readiness, inserting DMA for cross-engine edges.
    sim::SimTime ready = recompile_done;
    for (ValueId v : n.inputs) {
      const auto vi = static_cast<std::size_t>(v);
      sim::SimTime r = value_ready[vi];
      if ((value_sources[vi] & ~engine_bit(ex.engine)) != 0) {
        const auto key = std::make_pair(v, ex.engine);
        auto it = dma_done.find(key);
        if (it == dma_done.end()) {
          const std::size_t bytes = g.value(v).nbytes();
          // Fault injection: a timed-out transfer re-issues after exponential
          // backoff; each attempt is its own kDma event with an increasing
          // `retry` index, and consumers wait for the last attempt.
          std::uint32_t attempts = 1;
          if (faults != nullptr) {
            const std::uint32_t cap =
                std::max<std::uint32_t>(1, faults->profile().dma_max_attempts);
            while (attempts < cap &&
                   faults->fires(sim::FaultKind::kDmaTimeout,
                                 sim::FaultInjector::site(dma_index,
                                                          attempts - 1))) {
              ++attempts;
            }
          }
          ++dma_index;
          sim::SimTime end = sim::SimTime::zero();
          sim::SimTime attempt_ready = r;
          for (std::uint32_t a = 0; a < attempts; ++a) {
            TraceEvent ev;
            ev.engine = Engine::kDma;
            ev.kind = TraceEventKind::kDma;
            ev.name = "dma:" + g.value(v).name;
            ev.node = nid;
            ev.value = v;
            ev.dma_dst = ex.engine;
            ev.bytes = bytes;
            ev.retry = a;
            end = issue(Engine::kDma, attempt_ready,
                        memory::dma_transfer_time(cfg.memory, bytes),
                        std::move(ev));
            if (a + 1 < attempts) {
              attempt_ready =
                  end + sim::backoff_delay(faults->profile().dma_retry_backoff,
                                           sim::SimTime::max(),
                                           static_cast<std::int32_t>(a) + 1);
            }
          }
          it = dma_done.emplace(key, end).first;
        }
        r = it->second;
      }
      ready = std::max(ready, r);
    }

    // Fault injection: a straggling TPC kernel stretches its compute span;
    // the extension is made explicit as a kStall nested over the tail so the
    // trace (and its invariants) show the stall instead of silently
    // mistiming the kernel.
    sim::SimTime dur = ex.duration;
    sim::SimTime straggle = sim::SimTime::zero();
    if (faults != nullptr && ex.engine == Engine::kTpc &&
        faults->fires(sim::FaultKind::kTpcStraggler,
                      static_cast<std::uint64_t>(nid))) {
      const sim::SimTime stretched =
          dur.stretched(faults->profile().straggler_slowdown);
      straggle = stretched - dur;
      dur = stretched;
    }
    // Numerics guard: the sweep of the retiring outputs extends the exec
    // span; like the straggler stall it is made explicit as a nested
    // annotation (kGuard, carrying the sweep's stats) over the tail, so
    // guard overhead is visible in the trace instead of silently inflating
    // the kernel.  The guard runs after any straggle (sweeps wait for the
    // data).
    const sim::SimTime guard = ex.guard_time;
    dur += guard;
    TraceEvent ev;
    ev.engine = ex.engine;
    ev.name = ex.label.empty() ? n.label : ex.label;
    ev.node = nid;
    ev.flops = ex.flops;
    ev.bytes = ex.bytes;
    const sim::SimTime end = issue(ex.engine, ready, dur, std::move(ev));
    if (straggle > sim::SimTime::zero()) {
      TraceEvent stall;
      stall.engine = ex.engine;
      stall.kind = TraceEventKind::kStall;
      stall.name = (ex.label.empty() ? n.label : ex.label) + ".straggle";
      stall.node = nid;
      stall.start = end - guard - straggle;
      stall.end = end - guard;
      trace.add(std::move(stall));
    }
    if (guard > sim::SimTime::zero()) {
      TraceEvent sweep;
      sweep.engine = ex.engine;
      sweep.kind = TraceEventKind::kGuard;
      sweep.name = (ex.label.empty() ? n.label : ex.label) + ".guard";
      sweep.node = nid;
      sweep.start = end - guard;
      sweep.end = end;
      sweep.has_stats = ex.has_stats;
      sweep.stats = ex.stats;
      trace.add(std::move(sweep));
    }

    for (ValueId v : n.outputs) {
      value_ready[static_cast<std::size_t>(v)] = end;
      if (mutable_sources) {
        mutable_sources[static_cast<std::size_t>(v)] = engine_bit(ex.engine);
      }
    }
  }

  return trace;
}

}  // namespace

Trace schedule(const Graph& g, const std::vector<NodeExec>& execs,
               const sim::ChipConfig& cfg, SchedulePolicy policy,
               const sim::FaultInjector* faults) {
  return schedule_impl(g, execs, cfg, policy, nullptr, faults);
}

Trace schedule(const CompiledGraph& cg, const std::vector<NodeExec>& execs,
               SchedulePolicy policy, const sim::FaultInjector* faults) {
  return schedule_impl(cg.graph, execs, cg.config, policy, &cg.value_sources,
                       faults);
}

}  // namespace gaudi::graph
