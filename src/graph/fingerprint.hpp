// Field encoders for timing-mode memo keys.
//
// Timing-mode costs are pure functions of a few fields, so the TimingMemo
// (graph/timing_memo.hpp) keys them by those fields' fixed-width encoding:
//
//   - `kernel_cost_key` keeps the encoded bytes themselves, so two different
//     TPC kernels can never share an entry;
//   - `chip_fingerprint` folds every timing-relevant chip parameter into a
//     64-bit FNV-1a digest, which the serving pricer's makespan keys
//     (serve/scheduler.cpp) include.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "graph/graph.hpp"
#include "memory/checksum.hpp"
#include "sim/chip_config.hpp"

namespace gaudi::graph {

struct FusedChainSpec;

/// Fixed-width field encoding over a byte sink: every ingest method folds a
/// little-endian encoding into `Sink::bytes`, so keys and digests are
/// identical across platforms.
template <class Sink>
class FieldEncoder : public Sink {
 public:
  using Sink::bytes;
  void u64(std::uint64_t v) {
    unsigned char enc[8];
    for (int i = 0; i < 8; ++i) enc[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(enc, sizeof(enc));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void u8(std::uint8_t v) { bytes(&v, 1); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Bit pattern of the float/double (exact, not value-rounded).
  void f32(float v) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
};

using Fingerprint = FieldEncoder<memory::Fnv1a>;

/// Digest of every timing-relevant chip parameter.
[[nodiscard]] std::uint64_t chip_fingerprint(const sim::ChipConfig& cfg);

/// Exact timing-mode cost key of TPC node `n`'s kernel launch number
/// `launch` (cross-entropy mean launches two kernels): the op kind, every
/// OpAttrs field, each input's and output's shape and dtype, the TpcConfig
/// fields and the HBM bandwidth.  Labels, value names and ids are left out,
/// so identical layers share a key.
[[nodiscard]] std::string kernel_cost_key(const Graph& g, NodeId n,
                                          const sim::ChipConfig& cfg,
                                          std::uint8_t launch);

/// The same for a fused element-wise chain: its steps in order (kind,
/// attrs, external operand shape and dtype, which side the chain value is
/// on), the chain input and output, and the chip part.
[[nodiscard]] std::string kernel_cost_key(const Graph& g,
                                          const FusedChainSpec& spec,
                                          const sim::ChipConfig& cfg);

}  // namespace gaudi::graph
