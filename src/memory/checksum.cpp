#include "memory/checksum.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/error.hpp"

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

std::uint64_t fnv1a64(std::string_view bytes) {
  Fnv1a h;
  h.bytes(bytes.data(), bytes.size());
  return h.digest();
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void write_file_atomic(const std::string& path, std::string_view bytes,
                       std::string_view what) {
  const std::string tmp = path + ".tmp";
  const std::string who(what);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw sim::Error(who + ": cannot open '" + tmp + "' for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      throw sim::Error(who + ": short write to '" + tmp + "'");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw sim::Error(who + ": cannot commit '" + path + "': " + ec.message());
  }
}

std::string read_file(const std::string& path, std::string_view what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw sim::CheckpointError(std::string(what) + ": cannot open '" + path +
                               "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
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
