// Field encoder for the serving pricer's memo keys.
//
// A decode-step or prefill-chunk makespan is a pure function of a few
// fields, so the TimingMemo (graph/timing_memo.hpp) keys it by their
// fixed-width encoding, folded into a 64-bit FNV-1a digest: the pricer's
// `serve-cost:` key (serve/scheduler.cpp) covers the model dimensions, the
// batch, the phase, the context bucket and `chip_fingerprint`.
#pragma once

#include <cstdint>
#include <cstring>

#include "memory/checksum.hpp"
#include "sim/chip_config.hpp"

namespace gaudi::graph {

/// Fixed-width field encoding over FNV-1a: every ingest method folds a
/// little-endian encoding into the digest, so digests are identical across
/// platforms.
class Fingerprint : public memory::Fnv1a {
 public:
  void u64(std::uint64_t v) {
    unsigned char enc[8];
    for (int i = 0; i < 8; ++i) enc[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(enc, sizeof(enc));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void u8(std::uint8_t v) { bytes(&v, 1); }
  /// Bit pattern of the double (exact, not value-rounded).
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
};

/// Digest of every timing-relevant chip parameter.
[[nodiscard]] std::uint64_t chip_fingerprint(const sim::ChipConfig& cfg);

}  // namespace gaudi::graph
