// Per-buffer integrity checksums for silent-data-corruption detection.
//
// The SDC fault class (sim/fault.hpp kSdcBitFlip) flips a bit in a live HBM
// buffer *between* ops — after the producer retires, before a consumer
// reads.  A sweep of the producer's output cannot see that; what catches it
// is remembering a checksum of every buffer as it retires and re-verifying
// it at each read.  The ledger stores one 64-bit FNV-1a hash per value id;
// guarded runs record on production and verify on consumption, turning a
// silent flip into a localized, attributable anomaly.
//
// The same hash seals the simulator's durable files (snapshot manifests and
// the timing memo), which share one checksum format and one crash-safe
// writer and reader here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

namespace gaudi::memory {

/// Incremental 64-bit FNV-1a.  Not cryptographic — a fast order-sensitive
/// hash with good single-bit diffusion, which is exactly the corruption
/// model the SDC fault class injects.  Feeding a range in pieces gives the
/// digest of feeding it whole.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n);
  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;  // FNV-1a offset basis
};

/// FNV-1a digest of one raw byte range.
[[nodiscard]] std::uint64_t fnv1a64(const std::byte* data, std::size_t n);
/// FNV-1a digest of a string's bytes.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// A digest as sixteen lower-case hex digits: the form a durable file's
/// checksum line carries.
[[nodiscard]] std::string hex16(std::uint64_t v);

/// Writes `bytes` to `path` through a flushed `path.tmp` renamed over it, so
/// a crash never leaves a half-written file under the final name.  Throws
/// sim::Error whose message starts with `what` (the kind of file).
void write_file_atomic(const std::string& path, std::string_view bytes,
                       std::string_view what);

/// The whole file at `path`.  Throws sim::CheckpointError whose message
/// starts with `what` when it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path,
                                    std::string_view what);

/// Checksums of live buffers, keyed by the owning value id.
class ChecksumLedger {
 public:
  /// Records (or refreshes) the checksum of `id`'s bytes.
  void record(std::int64_t id, const std::byte* data, std::size_t n);

  [[nodiscard]] bool has(std::int64_t id) const { return sums_.count(id) != 0; }

  /// True when `id` has a recorded checksum and the bytes still match it.
  /// Unrecorded ids verify trivially (nothing to compare against).
  [[nodiscard]] bool verify(std::int64_t id, const std::byte* data,
                            std::size_t n) const;

  [[nodiscard]] std::size_t size() const { return sums_.size(); }

 private:
  std::unordered_map<std::int64_t, std::uint64_t> sums_;
};

}  // namespace gaudi::memory
