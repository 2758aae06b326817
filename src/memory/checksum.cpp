#include "memory/checksum.hpp"

namespace gaudi::memory {

void Fnv1a::bytes(const void* data, std::size_t n) {
  // Accumulate in a local: `p` may alias any object, h_ included, which
  // would force a store per byte.
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = h_;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;  // FNV prime
  }
  h_ = h;
}

std::uint64_t fnv1a64(const std::byte* data, std::size_t n) {
  Fnv1a h;
  h.bytes(data, n);
  return h.digest();
}

void ChecksumLedger::record(std::int64_t id, const std::byte* data,
                            std::size_t n) {
  sums_[id] = fnv1a64(data, n);
}

bool ChecksumLedger::verify(std::int64_t id, const std::byte* data,
                            std::size_t n) const {
  const auto it = sums_.find(id);
  if (it == sums_.end()) return true;
  return it->second == fnv1a64(data, n);
}

}  // namespace gaudi::memory
