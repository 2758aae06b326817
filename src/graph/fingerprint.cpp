#include "graph/fingerprint.hpp"

#include <utility>

#include "graph/fusion.hpp"
#include "graph/graph.hpp"

namespace gaudi::graph {

namespace {

/// Keeps every encoded byte: the string itself is the key.
class ByteKey {
 public:
  void bytes(const void* data, std::size_t n) {
    key_.append(static_cast<const char*>(data), n);
  }
  [[nodiscard]] std::string take() { return std::move(key_); }

 private:
  std::string key_;
};

using ExactKey = FieldEncoder<ByteKey>;

template <class Enc>
void ingest_shape(Enc& e, const tensor::Shape& s) {
  e.u64(static_cast<std::uint64_t>(s.rank()));
  for (std::size_t d = 0; d < s.rank(); ++d) e.i64(s.dim(d));
}

template <class Enc>
void ingest_attrs(Enc& e, const OpAttrs& a) {
  e.u8(static_cast<std::uint8_t>(a.unary));
  e.f32(a.alpha);
  e.f32(a.scalar);
  e.f32(a.eps);
  e.f32(a.p);
  e.f32(a.scale);
  e.u64(a.seed);
  e.f32(a.lr);
  e.f32(a.beta1);
  e.f32(a.beta2);
  e.i64(a.step);
  e.i64(a.dim);
  e.i64(a.count);
  e.u8(static_cast<std::uint8_t>(a.cast_to));
  ingest_shape(e, a.shape);
  e.boolean(a.trans_a);
  e.boolean(a.trans_b);
  e.boolean(a.requires_recompile);
}

template <class Enc>
void ingest_tpc(Enc& e, const sim::TpcConfig& t) {
  e.u64(t.num_cores);
  e.u64(t.vector_bits);
  e.f64(t.clock_hz);
  e.u64(t.global_access_cycles);
  e.u64(t.scalar_local_bytes);
  e.u64(t.vector_local_bytes);
  e.u64(t.launch_overhead_cycles);
}

/// What a timing-mode kernel sees of a value: its phantom's shape and dtype.
void ingest_operand(ExactKey& k, const ValueInfo& info) {
  ingest_shape(k, info.shape);
  k.u8(static_cast<std::uint8_t>(info.dtype));
}

/// The cluster a kernel launches on: TpcCluster's config and HBM bound.
ExactKey cluster_key(char tag, const sim::ChipConfig& cfg) {
  ExactKey k;
  k.u8(static_cast<std::uint8_t>(tag));
  ingest_tpc(k, cfg.tpc);
  k.f64(cfg.memory.hbm_bandwidth_bytes_per_s);
  return k;
}

}  // namespace

std::uint64_t chip_fingerprint(const sim::ChipConfig& cfg) {
  Fingerprint fp;
  fp.u64(cfg.mme.array_rows);
  fp.u64(cfg.mme.array_cols);
  fp.f64(cfg.mme.clock_hz);
  fp.u64(cfg.mme.launch_overhead_cycles);
  fp.u64(cfg.mme.pipeline_fill_cycles);
  fp.f64(cfg.mme.bf16_throughput_multiplier);
  ingest_tpc(fp, cfg.tpc);
  fp.u64(cfg.memory.hbm_bytes);
  fp.f64(cfg.memory.hbm_bandwidth_bytes_per_s);
  fp.i64(cfg.memory.hbm_latency.ps());
  fp.u64(cfg.memory.shared_sram_bytes);
  fp.f64(cfg.memory.dma_bandwidth_bytes_per_s);
  fp.i64(cfg.memory.dma_setup.ps());
  fp.u64(cfg.memory.dma_channels);
  fp.i64(cfg.compiler.recompile_stall.ps());
  return fp.digest();
}

std::string kernel_cost_key(const Graph& g, NodeId n,
                            const sim::ChipConfig& cfg, std::uint8_t launch) {
  // In timing mode every operand is a phantom of its value's shape and
  // dtype, so these fields are everything the executor builds the kernel
  // from.
  ExactKey k = cluster_key('n', cfg);
  k.u8(launch);
  const Node& node = g.node(n);
  k.u8(static_cast<std::uint8_t>(node.kind));
  ingest_attrs(k, node.attrs);
  k.u64(node.inputs.size());
  for (ValueId v : node.inputs) ingest_operand(k, g.value(v));
  k.u64(node.outputs.size());
  for (ValueId v : node.outputs) ingest_operand(k, g.value(v));
  return k.take();
}

std::string kernel_cost_key(const Graph& g, const FusedChainSpec& spec,
                            const sim::ChipConfig& cfg) {
  ExactKey k = cluster_key('f', cfg);
  k.i64(spec.numel);
  ingest_operand(k, g.value(spec.chain_input));
  ingest_operand(k, g.value(spec.output));
  k.u64(spec.steps.size());
  for (const FusedChainStep& s : spec.steps) {
    k.u8(static_cast<std::uint8_t>(s.kind));
    ingest_attrs(k, s.attrs);
    k.boolean(s.chain_is_rhs);
    k.boolean(s.has_external());
    if (s.has_external()) ingest_operand(k, g.value(s.external));
  }
  return k.take();
}

}  // namespace gaudi::graph
