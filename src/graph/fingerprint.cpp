#include "graph/fingerprint.hpp"

namespace gaudi::graph {

std::uint64_t chip_fingerprint(const sim::ChipConfig& cfg) {
  Fingerprint fp;
  fp.u64(cfg.mme.array_rows);
  fp.u64(cfg.mme.array_cols);
  fp.f64(cfg.mme.clock_hz);
  fp.u64(cfg.mme.launch_overhead_cycles);
  fp.u64(cfg.mme.pipeline_fill_cycles);
  fp.f64(cfg.mme.bf16_throughput_multiplier);
  fp.u64(cfg.tpc.num_cores);
  fp.u64(cfg.tpc.vector_bits);
  fp.f64(cfg.tpc.clock_hz);
  fp.u64(cfg.tpc.global_access_cycles);
  fp.u64(cfg.tpc.scalar_local_bytes);
  fp.u64(cfg.tpc.vector_local_bytes);
  fp.u64(cfg.tpc.launch_overhead_cycles);
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

}  // namespace gaudi::graph
