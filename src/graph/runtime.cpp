#include "graph/runtime.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iostream>
#include <span>
#include <sstream>
#include <utility>

#include "graph/validate.hpp"
#include "memory/checksum.hpp"
#include "tensor/ops.hpp"

namespace gaudi::graph {

CompiledGraph Runtime::compile(const Graph& g, const CompileOptions& opts) const {
  return compile_graph(g, cfg_, opts);
}

ProfileResult Runtime::run(const CompiledGraph& cg,
                           const std::unordered_map<ValueId, tensor::Tensor>& feeds,
                           const RunOptions& opts) const {
  const Graph& g = cg.graph;
  const bool functional = opts.mode == tpc::ExecMode::kFunctional;
  const sim::NumericsPolicy guard_policy =
      opts.guard.has_value() ? *opts.guard : sim::numerics_policy_from_env();
  const bool guarded = guard_policy != sim::NumericsPolicy::kOff;
  const sim::FaultInjector* faults =
      opts.faults != nullptr ? opts.faults : sim::fault_injector_from_env();
  if (faults != nullptr && !faults->enabled()) faults = nullptr;
  const bool validating = opts.validate || validation_requested_from_env();

  std::vector<tensor::Tensor> tensors(g.num_values());
  // The static plan already fixed every buffer's offset; the dynamic
  // allocator is replayed as a cross-check of its peak.
  memory::DeviceAllocator hbm(cg.config.memory);
  std::vector<memory::Allocation> allocs(g.num_values());
  // Remaining consumers per value; storage is dropped when it reaches zero.
  std::vector<std::int32_t> pending(g.num_values(), 0);

  // Numerics-guard state (functional guarded runs).  The ledger holds a
  // checksum of every feed and every buffer the run allocated; a mismatch at
  // a consumer means the bytes changed between ops — silent data
  // corruption.  value_anomalous tracks which values carry NaN/Inf so an
  // anomaly report can walk the contamination path back to its origin.
  memory::ChecksumLedger ledger;
  std::vector<char> value_anomalous(g.num_values(), 0);
  std::vector<NumericsAnomaly> anomalies;
  std::vector<SdcInjection> sdc_injections;
  sim::NumericsStats total_stats;
  bool warned_first = false;

  // Bind inputs/params and allocate their device residency.
  for (ValueId v = 0; v < static_cast<ValueId>(g.num_values()); ++v) {
    const ValueInfo& info = g.value(v);
    pending[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(info.consumers.size());
    if (info.role == ValueRole::kIntermediate) continue;

    if (functional) {
      auto it = feeds.find(v);
      GAUDI_CHECK(it != feeds.end(),
                  "functional run is missing a feed for '" + info.name + "'");
      GAUDI_CHECK(it->second.shape() == info.shape,
                  "feed shape mismatch for '" + info.name + "'");
      GAUDI_CHECK(it->second.dtype() == info.dtype,
                  "feed dtype mismatch for '" + info.name + "'");
      tensors[static_cast<std::size_t>(v)] = it->second;
      if (guarded) {
        const tensor::Tensor& t = it->second;
        ledger.record(v, t.raw(), t.nbytes());
        // A non-finite feed is the user's data, not an op's fault: mark it so
        // contamination paths can start at the feed, but report nothing here.
        if (tensor::is_floating(t.dtype()) &&
            tensor::ops::numerics_sweep(t).anomalous()) {
          value_anomalous[static_cast<std::size_t>(v)] = 1;
        }
      }
    } else {
      tensors[static_cast<std::size_t>(v)] =
          tensor::Tensor::phantom(info.shape, info.dtype);
    }
    allocs[static_cast<std::size_t>(v)] = hbm.allocate(info.nbytes(), info.name);
  }

  const NodeExecutor executor(cg.config, sim::CounterRng{opts.seed});
  std::vector<NodeExec> execs(g.num_nodes());

  auto release_if_dead = [&](ValueId v) {
    const auto vi = static_cast<std::size_t>(v);
    const ValueInfo& info = g.value(v);
    if (pending[vi] == 0 && !info.is_output &&
        info.role == ValueRole::kIntermediate) {
      if (allocs[vi].valid()) {
        hbm.release(allocs[vi]);
        allocs[vi] = memory::Allocation{};
      }
      tensors[vi] = tensor::Tensor{};  // drop host storage too
    }
  };

  auto node_desc = [&](NodeId nid) {
    return "'" + g.node(nid).label + "' (node " + std::to_string(nid) + ")";
  };
  auto value_desc = [&](ValueId v) {
    return "'" + g.value(v).name + "' (value " + std::to_string(v) + ")";
  };
  auto producer_desc = [&](ValueId v) -> std::string {
    const NodeId p = g.value(v).producer;
    if (p < 0) return "graph feed";
    return node_desc(p);
  };

  // Raises one detected anomaly according to the policy: kTrap aborts the
  // run at the first one; kWarn prints the first to stderr and collects all.
  auto raise_anomaly = [&](NumericsAnomaly a) {
    if (guard_policy == sim::NumericsPolicy::kTrap) {
      throw sim::NumericsError(a.report);
    }
    if (!warned_first) {
      std::cerr << "[gaudisim] numerics guard: " << a.report << "\n";
      warned_first = true;
    }
    anomalies.push_back(std::move(a));
  };

  // Walks the contamination back from `bad` through anomalous inputs to the
  // earliest tainted value, then narrates the path feed-to-fault in
  // topological order.
  auto contamination_report = [&](NodeId nid, ValueId bad,
                                  const sim::NumericsStats& s) {
    std::vector<ValueId> path;
    ValueId cur = bad;
    while (cur != kInvalidValue) {
      path.push_back(cur);
      const NodeId p = g.value(cur).producer;
      if (p < 0) break;
      ValueId next = kInvalidValue;
      for (ValueId in : g.node(p).inputs) {
        if (value_anomalous[static_cast<std::size_t>(in)] != 0) {
          next = in;
          break;
        }
      }
      cur = next;
    }
    std::reverse(path.begin(), path.end());
    std::ostringstream os;
    os << "non-finite output at " << node_desc(nid) << ": " << value_desc(bad)
       << " has " << s.to_string() << "\n";
    os << "  contamination path (feed -> fault):\n";
    for (ValueId v : path) {
      os << "    " << value_desc(v) << " <- " << producer_desc(v) << "\n";
    }
    return os.str();
  };

  // Checksum verification of one external input buffer before a consumer
  // reads it: a mismatch means the bytes changed since the producer retired.
  auto verify_input = [&](NodeId nid, ValueId v) {
    const auto vi = static_cast<std::size_t>(v);
    const tensor::Tensor& t = tensors[vi];
    if (!t.defined() || !ledger.has(static_cast<std::int64_t>(v))) return;
    if (ledger.verify(static_cast<std::int64_t>(v), t.raw(), t.nbytes())) return;
    value_anomalous[vi] = 1;
    NumericsAnomaly a;
    a.kind = NumericsAnomaly::Kind::kSdc;
    a.node = nid;
    a.value = v;
    a.report = "silent data corruption: " + value_desc(v) +
               " failed its checksum when read by " + node_desc(nid) +
               "; produced by " + producer_desc(v) +
               " (bytes changed after the producer retired)";
    // Accept the corrupted bytes as the new baseline so kWarn reports each
    // corruption once, not at every later consumer.
    ledger.record(static_cast<std::int64_t>(v), t.raw(), t.nbytes());
    raise_anomaly(std::move(a));
  };

  // Retires a launch's outputs under the guard.  Only buffers this run
  // allocated are guarded: a reshape's view aliases its input's bytes and
  // carries its input's anomaly mark, so what flows through it is met once,
  // at its producer.  Both modes bill the sweep (one pass plus checksum per
  // buffer) and count its floating-point elements as coverage; a functional
  // run also sweeps, blames and checksums the bytes.
  auto retire = [&](NodeExec& exec, NodeId nid, bool inherited) {
    std::size_t bytes = 0;
    for (ValueId v : g.node(nid).outputs) {
      const auto vi = static_cast<std::size_t>(v);
      if (!allocs[vi].valid()) {
        value_anomalous[vi] = inherited;
        continue;
      }
      const ValueInfo& info = g.value(v);
      const tensor::Tensor& t = tensors[vi];
      bytes += info.nbytes();
      exec.has_stats = true;
      if (functional) ledger.record(v, t.raw(), t.nbytes());
      if (!tensor::is_floating(info.dtype)) continue;
      sim::NumericsStats s;
      if (functional) {
        s = tensor::ops::numerics_sweep(t);
      } else {
        s.count = static_cast<std::uint64_t>(info.shape.numel());
      }
      exec.stats.merge(s);
      total_stats.merge(s);
      if (s.anomalous()) {
        value_anomalous[vi] = 1;
        if (!inherited) {
          NumericsAnomaly a;
          a.node = nid;
          a.value = v;
          a.stats = s;
          a.report = contamination_report(nid, v, s);
          raise_anomaly(std::move(a));
        }
      }
    }
    if (exec.has_stats) {
      exec.guard_time = sim::guard_sweep_time(
          bytes, cg.config.memory.hbm_bandwidth_bytes_per_s);
    }
  };

  // Rewrites element `i` of a floating buffer through its raw bits at the
  // dtype's width (an f32 word or a bf16 half-word, read into the low bytes
  // of `bits`): `edit(bits, width_in_bits)` returns the new bits.
  auto store_bits = [](tensor::Tensor& t, std::uint64_t i, auto edit) {
    static_assert(std::endian::native == std::endian::little);
    const std::size_t width = tensor::dtype_size(t.dtype());
    std::byte* p = t.raw() + i * width;
    std::uint32_t bits = 0;
    std::memcpy(&bits, p, width);
    bits = edit(bits, static_cast<std::uint32_t>(8 * width));
    std::memcpy(p, &bits, width);
  };
  auto floating_data = [&](ValueId v) {
    const tensor::Tensor& t = tensors[static_cast<std::size_t>(v)];
    return t.defined() && t.numel() > 0 && tensor::is_floating(t.dtype());
  };

  // Deterministic corruption of a just-retired buffer, after its checksum is
  // recorded — so the damage is silent until a guarded consumer looks.
  auto inject_sdc = [&](NodeId nid) {
    const std::vector<ValueId>& outs = g.node(nid).outputs;
    for (ValueId v : outs) {
      if (v != opts.corrupt_value || !floating_data(v)) continue;
      store_bits(tensors[static_cast<std::size_t>(v)], 0,
                 [](std::uint32_t, std::uint32_t w) {
                   return 0x7FC00000u >> (32 - w);  // quiet NaN
                 });
    }
    if (faults == nullptr) return;
    const std::uint64_t site = sim::FaultInjector::site(
        opts.fault_epoch,
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(nid)));
    if (!faults->fires(sim::FaultKind::kSdcBitFlip, site)) return;
    // One flip per firing: a single upset hits the first floating buffer
    // the launch allocated (a view owns no bytes to upset).
    for (ValueId v : outs) {
      const auto vi = static_cast<std::size_t>(v);
      if (!allocs[vi].valid() || !floating_data(v)) continue;
      tensor::Tensor& t = tensors[vi];
      const std::uint64_t element =
          faults->sdc_element(site, static_cast<std::uint64_t>(t.numel()));
      const std::uint32_t bit = faults->sdc_bit(
          site, static_cast<std::uint32_t>(8 * tensor::dtype_size(t.dtype())));
      store_bits(t, element, [bit](std::uint32_t bits, std::uint32_t) {
        return bits ^ (1u << bit);
      });
      sdc_injections.push_back(SdcInjection{
          nid, v, static_cast<std::int64_t>(element), bit});
      return;
    }
  };

  for (NodeId nid = 0; nid < static_cast<NodeId>(g.num_nodes()); ++nid) {
    const auto ni = static_cast<std::size_t>(nid);
    const std::int32_t group = cg.fusion.group_of[ni];
    // A fused chain launches once, at its tail.  The other links run on no
    // engine, consume nothing yet and never materialize their value.
    if (group >= 0 && !cg.fusion.is_group_tail(nid)) continue;
    const Node& n = g.node(nid);
    // What the launch reads: the node itself, or the whole chain it ends.
    const std::span<const NodeId> members =
        group >= 0 ? std::span<const NodeId>(
                         cg.fusion.groups[static_cast<std::size_t>(group)].nodes)
                   : std::span<const NodeId>(&nid, 1);

    // Allocate outputs (reshape aliases its input; fused-chain intermediates
    // live in vector registers — neither takes device bytes).
    if (n.kind != OpKind::kReshape) {
      for (ValueId v : n.outputs) {
        if (cg.fusion.internal_value[static_cast<std::size_t>(v)]) continue;
        allocs[static_cast<std::size_t>(v)] =
            hbm.allocate(g.value(v).nbytes(), g.value(v).name);
      }
    }

    // The guard verifies (and blame-checks) every operand the launch reads.
    bool inherited = false;
    if (guarded && functional) {
      for (const NodeId member : members) {
        for (ValueId v : g.node(member).inputs) {
          verify_input(nid, v);
          inherited |= value_anomalous[static_cast<std::size_t>(v)] != 0;
        }
      }
    }
    const bool poison = guarded && functional;
    NodeExec& exec = execs[ni];
    exec = group >= 0
               ? executor.run(g, cg.chains[static_cast<std::size_t>(group)],
                              tensors, opts.mode, poison)
               : executor.run(g, nid, tensors, opts.mode, poison);
    exec.engine = cg.node_engine[ni];
    if (exec.engine != Engine::kNone) {
      for (ValueId v : n.inputs) exec.bytes += g.value(v).nbytes();
      for (ValueId v : n.outputs) exec.bytes += g.value(v).nbytes();
    }
    if (guarded) retire(exec, nid, inherited);
    if (functional) inject_sdc(nid);
    // The launch read every member's operands just now, so their consumption
    // lands here — releasing an external at the chain link that names it
    // would free bytes the tail still reads.
    for (const NodeId member : members) {
      for (ValueId v : g.node(member).inputs) {
        auto& p = pending[static_cast<std::size_t>(v)];
        GAUDI_ASSERT(p > 0, "consumer refcount underflow");
        --p;
        release_if_dead(v);
      }
    }
    // Outputs nobody consumes (and not marked graph outputs) die immediately.
    for (ValueId v : n.outputs) release_if_dead(v);
  }

  // End-of-run audit: a graph output corrupted after its last consumer (or
  // one nothing ever read) would otherwise leave the run with no verifier.
  if (guarded && functional) {
    for (ValueId v = 0; v < static_cast<ValueId>(g.num_values()); ++v) {
      if (!g.value(v).is_output) continue;
      const tensor::Tensor& t = tensors[static_cast<std::size_t>(v)];
      if (!t.defined() || !ledger.has(static_cast<std::int64_t>(v))) continue;
      if (ledger.verify(static_cast<std::int64_t>(v), t.raw(), t.nbytes())) {
        continue;
      }
      NumericsAnomaly a;
      a.kind = NumericsAnomaly::Kind::kSdc;
      a.value = v;
      a.report = "silent data corruption: graph output " + value_desc(v) +
                 " failed its checksum at end of run; produced by " +
                 producer_desc(v) +
                 " (bytes changed after the producer retired)";
      raise_anomaly(std::move(a));
    }
  }

  ProfileResult result;
  result.guard_policy = guard_policy;
  result.anomalies = std::move(anomalies);
  result.sdc_injections = std::move(sdc_injections);
  result.numerics = total_stats;
  result.trace = schedule(cg, execs, opts.policy, faults);
  if (validating) {
    validate_or_throw(g, execs, result.trace, opts.policy, cg.config);
    std::vector<Violation> violations = validate_memory_plan(cg);
    if (hbm.peak() != cg.stats.peak_bytes) {
      std::ostringstream os;
      os << "planned peak " << cg.stats.peak_bytes
         << " bytes != dynamic allocator peak " << hbm.peak() << " bytes";
      violations.push_back(Violation{"memory-plan-peak", os.str(), -1});
    }
    if (!violations.empty()) {
      throw sim::InternalError("memory-plan validation failed:\n" +
                               TraceValidator::format(violations));
    }
  }
  result.makespan = result.trace.makespan();
  result.hbm_peak_bytes = cg.stats.peak_bytes;
  result.hbm_capacity_bytes = hbm.capacity();
  result.node_execs = std::move(execs);
  for (ValueId v = 0; v < static_cast<ValueId>(g.num_values()); ++v) {
    if (g.value(v).is_output) {
      result.outputs.emplace(v, tensors[static_cast<std::size_t>(v)]);
    }
  }
  return result;
}

ProfileResult Runtime::run(const Graph& g,
                           const std::unordered_map<ValueId, tensor::Tensor>& feeds,
                           const RunOptions& opts) const {
  return run(compile(g), feeds, opts);
}

}  // namespace gaudi::graph
