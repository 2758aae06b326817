#include "scaleout/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string_view>

#include "memory/checksum.hpp"
#include "sim/error.hpp"

namespace gaudi::scaleout {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestMagic = "gsnap-manifest";
constexpr const char* kDataSuffix = ".gsnap";
constexpr const char* kManifestSuffix = ".manifest";
constexpr std::string_view kWhat = "snapshot";

bool plain_token(const std::string& s) {
  return !s.empty() &&
         s.find_first_of(" \t\r\n") == std::string::npos;
}

tensor::DType parse_dtype(const std::string& s) {
  for (const tensor::DType d :
       {tensor::DType::F32, tensor::DType::BF16, tensor::DType::I32,
        tensor::DType::I16, tensor::DType::I8}) {
    if (s == tensor::dtype_name(d)) return d;
  }
  throw sim::CheckpointError("snapshot manifest names unknown dtype '" + s + "'");
}

/// The manifest body (everything the trailing checksum line covers).
std::string manifest_body(const Snapshot& snap, std::uint32_t version,
                          const std::vector<std::uint64_t>& offsets,
                          const std::vector<std::uint64_t>& sums) {
  std::ostringstream os;
  os << kManifestMagic << " " << version << "\n";
  os << "step " << snap.step << "\n";
  os << "meta " << snap.meta.size() << "\n";
  for (const auto& [key, value] : snap.meta) {
    os << "m " << key << " " << value << "\n";
  }
  os << "sections " << snap.sections.size() << "\n";
  for (std::size_t i = 0; i < snap.sections.size(); ++i) {
    const SnapshotSection& s = snap.sections[i];
    os << "s " << s.name << " " << tensor::dtype_name(s.data.dtype()) << " "
       << s.data.shape().rank();
    for (const std::int64_t d : s.data.shape().dims()) os << " " << d;
    os << " " << offsets[i] << " " << s.data.nbytes() << " "
       << memory::hex16(sums[i])
       << "\n";
  }
  return std::move(os).str();
}

SnapshotReject reject_reason(const sim::CheckpointError& e) {
  if (dynamic_cast<const sim::CheckpointVersionSkew*>(&e)) {
    return SnapshotReject::kVersionSkew;
  }
  if (dynamic_cast<const sim::CheckpointTruncated*>(&e)) {
    return SnapshotReject::kTruncated;
  }
  if (dynamic_cast<const sim::CheckpointChecksumMismatch*>(&e)) {
    return SnapshotReject::kChecksumMismatch;
  }
  return SnapshotReject::kBadManifest;
}

}  // namespace

void Snapshot::add_meta(const std::string& key, std::uint64_t value) {
  GAUDI_CHECK(plain_token(key), "snapshot meta key must be non-empty and "
                                "whitespace-free: '" + key + "'");
  GAUDI_CHECK(!meta_value(key).has_value(),
              "duplicate snapshot meta key: '" + key + "'");
  meta.emplace_back(key, value);
}

std::optional<std::uint64_t> Snapshot::meta_value(const std::string& key) const {
  for (const auto& [k, v] : meta) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::uint64_t Snapshot::require_meta(const std::string& key) const {
  const std::optional<std::uint64_t> v = meta_value(key);
  if (!v) {
    throw sim::CheckpointShapeMismatch("snapshot has no meta key '" + key +
                                       "'");
  }
  return *v;
}

void Snapshot::add(std::string name, tensor::Tensor data) {
  GAUDI_CHECK(plain_token(name), "snapshot section name must be non-empty and "
                                 "whitespace-free: '" + name + "'");
  GAUDI_CHECK(data.defined(), "snapshot section '" + name +
                              "' has no storage (phantom tensor)");
  GAUDI_CHECK(find(name) == nullptr,
              "duplicate snapshot section: '" + name + "'");
  sections.push_back(SnapshotSection{std::move(name), std::move(data)});
}

const tensor::Tensor* Snapshot::find(const std::string& name) const {
  for (const SnapshotSection& s : sections) {
    if (s.name == name) return &s.data;
  }
  return nullptr;
}

const tensor::Tensor& Snapshot::require(const std::string& name) const {
  const tensor::Tensor* t = find(name);
  if (t == nullptr) {
    throw sim::CheckpointShapeMismatch("snapshot has no section '" + name +
                                       "'");
  }
  return *t;
}

std::size_t Snapshot::payload_bytes() const {
  std::size_t total = 0;
  for (const SnapshotSection& s : sections) total += s.data.nbytes();
  return total;
}

std::string snapshot_basename(std::uint64_t step) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "step-%09llu",
                static_cast<unsigned long long>(step));
  return buf;
}

std::string save_snapshot(const std::string& dir, const Snapshot& snap,
                          const SaveOptions& opts) {
  GAUDI_CHECK(!dir.empty(), "snapshot directory must not be empty");
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw sim::Error("snapshot: cannot create directory '" + dir +
                     "': " + ec.message());
  }

  // Serialize the payload and the manifest that describes it.
  std::string payload;
  payload.reserve(snap.payload_bytes());
  std::vector<std::uint64_t> offsets, sums;
  offsets.reserve(snap.sections.size());
  sums.reserve(snap.sections.size());
  for (const SnapshotSection& s : snap.sections) {
    offsets.push_back(payload.size());
    sums.push_back(memory::fnv1a64(s.data.raw(), s.data.nbytes()));
    payload.append(reinterpret_cast<const char*>(s.data.raw()),
                   s.data.nbytes());
  }
  std::string manifest = manifest_body(snap, opts.version, offsets, sums);
  manifest += "checksum " + memory::hex16(memory::fnv1a64(manifest)) + "\n";

  const fs::path base = fs::path(dir) / snapshot_basename(snap.step);
  const std::string data_path = base.string() + kDataSuffix;
  const std::string manifest_path = base.string() + kManifestSuffix;

  // Simulated torn-write window: a fired kCheckpointCorruption damages the
  // write in one of three shapes.  The writer does not observe any of them
  // (the bytes "landed" as far as it knows); the next resume must.
  enum { kLostCommit, kTornData, kBitFlip };
  int mode = -1;
  if (opts.faults != nullptr &&
      opts.faults->fires(sim::FaultKind::kCheckpointCorruption, opts.site)) {
    mode = payload.empty()
               ? kLostCommit
               : static_cast<int>(opts.faults->checkpoint_mode(opts.site, 3));
    if (mode == kTornData) {
      payload.resize(static_cast<std::size_t>(
          opts.faults->checkpoint_offset(opts.site, payload.size())));
    } else if (mode == kBitFlip) {
      const std::uint64_t bit =
          opts.faults->checkpoint_offset(opts.site, payload.size() * 8);
      payload[static_cast<std::size_t>(bit / 8)] =
          static_cast<char>(payload[static_cast<std::size_t>(bit / 8)] ^
                            (1u << (bit % 8)));
    }
  }

  memory::write_file_atomic(data_path, payload, kWhat);
  if (mode != kLostCommit) {
    memory::write_file_atomic(manifest_path, manifest, kWhat);
  }
  return manifest_path;
}

Snapshot load_snapshot(const std::string& manifest_path) {
  const std::string text = memory::read_file(manifest_path, kWhat);

  // Version first: a future format may not even keep the checksum trailer,
  // so skew must be reported as skew, not as structural damage.
  {
    std::istringstream head(text);
    std::string magic;
    std::uint32_t version = 0;
    if (!(head >> magic) || magic != kManifestMagic) {
      throw sim::CheckpointError("snapshot manifest '" + manifest_path +
                                 "' does not start with '" +
                                 std::string(kManifestMagic) + "'");
    }
    if (!(head >> version)) {
      throw sim::CheckpointError("snapshot manifest '" + manifest_path +
                                 "' has no format version");
    }
    if (version != kSnapshotFormatVersion) {
      throw sim::CheckpointVersionSkew(
          "snapshot manifest '" + manifest_path + "' is format version " +
          std::to_string(version) + ", this build reads version " +
          std::to_string(kSnapshotFormatVersion));
    }
  }

  // Manifest self-integrity: the trailing line checksums the body above it.
  const std::size_t trailer = text.rfind("\nchecksum ");
  if (trailer == std::string::npos) {
    throw sim::CheckpointTruncated("snapshot manifest '" + manifest_path +
                                   "' ends before its checksum trailer");
  }
  const std::string body = text.substr(0, trailer + 1);
  {
    std::istringstream tail(text.substr(trailer + 1));
    std::string word, hex;
    if (!(tail >> word >> hex) || word != "checksum" ||
        hex != memory::hex16(memory::fnv1a64(body))) {
      throw sim::CheckpointChecksumMismatch(
          "snapshot manifest '" + manifest_path +
          "' fails its own body checksum");
    }
  }

  const auto parse_error = [&manifest_path](const std::string& what) {
    return sim::CheckpointError("snapshot manifest '" + manifest_path +
                                "' parse error: " + what);
  };

  Snapshot snap;
  std::vector<std::uint64_t> offsets, nbytes, sums;
  std::istringstream in(body);
  {
    std::string magic;
    std::uint32_t version = 0;
    std::string word;
    std::size_t count = 0;
    if (!(in >> magic >> version)) throw parse_error("header");
    if (!(in >> word >> snap.step) || word != "step") {
      throw parse_error("step line");
    }
    if (!(in >> word >> count) || word != "meta") {
      throw parse_error("meta count");
    }
    for (std::size_t i = 0; i < count; ++i) {
      std::string key;
      std::uint64_t value = 0;
      if (!(in >> word >> key >> value) || word != "m") {
        throw parse_error("meta entry " + std::to_string(i));
      }
      snap.meta.emplace_back(key, value);
    }
    if (!(in >> word >> count) || word != "sections") {
      throw parse_error("section count");
    }
    for (std::size_t i = 0; i < count; ++i) {
      std::string name, dtype_text, hex;
      std::size_t rank = 0;
      std::uint64_t offset = 0, size = 0;
      if (!(in >> word >> name >> dtype_text >> rank) || word != "s") {
        throw parse_error("section entry " + std::to_string(i));
      }
      if (rank < 1 || rank > tensor::kMaxRank) {
        throw parse_error("section '" + name + "' rank " +
                          std::to_string(rank));
      }
      std::vector<std::int64_t> dims(rank);
      for (std::int64_t& d : dims) {
        if (!(in >> d) || d <= 0) {
          throw parse_error("section '" + name + "' dims");
        }
      }
      if (!(in >> offset >> size >> hex)) {
        throw parse_error("section '" + name + "' extent");
      }
      const tensor::DType dtype = parse_dtype(dtype_text);
      const tensor::Shape shape{std::span<const std::int64_t>(dims)};
      if (static_cast<std::uint64_t>(shape.numel()) *
              tensor::dtype_size(dtype) != size) {
        throw parse_error("section '" + name +
                          "' nbytes disagrees with its shape");
      }
      if (hex.size() != 16 ||
          hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
        throw parse_error("section '" + name + "' checksum");
      }
      const std::uint64_t sum = std::strtoull(hex.c_str(), nullptr, 16);
      snap.sections.push_back(
          SnapshotSection{name, tensor::Tensor::zeros(shape, dtype)});
      offsets.push_back(offset);
      nbytes.push_back(size);
      sums.push_back(sum);
    }
  }

  // The payload: existence, extent, and per-section checksums.
  const std::string data_path =
      manifest_path.substr(0, manifest_path.size() -
                                  std::strlen(kManifestSuffix)) +
      kDataSuffix;
  if (!fs::exists(data_path)) {
    throw sim::CheckpointTruncated("snapshot data file '" + data_path +
                                   "' is missing (uncommitted or deleted)");
  }
  const std::string payload = memory::read_file(data_path, kWhat);
  for (std::size_t i = 0; i < snap.sections.size(); ++i) {
    SnapshotSection& s = snap.sections[i];
    if (offsets[i] + nbytes[i] > payload.size()) {
      throw sim::CheckpointTruncated(
          "snapshot data file '" + data_path + "' holds " +
          std::to_string(payload.size()) + " bytes but section '" + s.name +
          "' needs [" + std::to_string(offsets[i]) + ", " +
          std::to_string(offsets[i] + nbytes[i]) + ") — torn write");
    }
    const auto* bytes =
        reinterpret_cast<const std::byte*>(payload.data()) + offsets[i];
    if (memory::fnv1a64(bytes, nbytes[i]) != sums[i]) {
      throw sim::CheckpointChecksumMismatch(
          "snapshot section '" + s.name + "' in '" + data_path +
          "' fails its checksum — corrupted bytes");
    }
    std::memcpy(s.data.raw(), bytes, nbytes[i]);
  }
  return snap;
}

const char* snapshot_reject_name(SnapshotReject r) {
  switch (r) {
    case SnapshotReject::kUncommitted: return "uncommitted";
    case SnapshotReject::kMissingData: return "missing-data";
    case SnapshotReject::kBadManifest: return "bad-manifest";
    case SnapshotReject::kVersionSkew: return "version-skew";
    case SnapshotReject::kTruncated: return "truncated";
    case SnapshotReject::kChecksumMismatch: return "checksum-mismatch";
  }
  return "?";
}

SnapshotScan scan_snapshots(const std::string& dir) {
  SnapshotScan scan;
  std::error_code ec;
  if (dir.empty() || !fs::is_directory(dir, ec)) return scan;

  // Collect candidate steps and which half of the file pair each has.
  struct Candidate {
    bool has_data = false;
    bool has_manifest = false;
  };
  std::vector<std::pair<std::uint64_t, Candidate>> candidates;
  const auto candidate_for = [&candidates](std::uint64_t step) -> Candidate& {
    for (auto& [s, c] : candidates) {
      if (s == step) return c;
    }
    candidates.emplace_back(step, Candidate{});
    return candidates.back().second;
  };
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    for (const char* suffix : {kDataSuffix, kManifestSuffix}) {
      const std::size_t n = std::strlen(suffix);
      if (name.size() <= 5 + n || name.rfind("step-", 0) != 0 ||
          name.compare(name.size() - n, n, suffix) != 0) {
        continue;
      }
      const std::string digits = name.substr(5, name.size() - 5 - n);
      if (digits.empty() ||
          digits.find_first_not_of("0123456789") != std::string::npos) {
        continue;
      }
      Candidate& c = candidate_for(std::stoull(digits));
      (suffix == kDataSuffix ? c.has_data : c.has_manifest) = true;
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  // Newest first: the first candidate that verifies end-to-end wins; every
  // newer one is rejected with its cause.
  for (const auto& [step, c] : candidates) {
    const std::string base =
        (fs::path(dir) / snapshot_basename(step)).string();
    if (!c.has_manifest) {
      scan.rejected.push_back(
          {step, base + kDataSuffix, SnapshotReject::kUncommitted,
           "data file present but the manifest was never committed "
           "(crash before the rename)"});
      continue;
    }
    if (!c.has_data) {
      scan.rejected.push_back({step, base + kManifestSuffix,
                               SnapshotReject::kMissingData,
                               "manifest present but the data file is gone"});
      continue;
    }
    try {
      scan.snapshot = load_snapshot(base + kManifestSuffix);
      scan.step = step;
      scan.path = base + kManifestSuffix;
      break;
    } catch (const sim::CheckpointError& e) {
      scan.rejected.push_back(
          {step, base + kManifestSuffix, reject_reason(e), e.what()});
    } catch (const sim::Error& e) {
      scan.rejected.push_back({step, base + kManifestSuffix,
                               SnapshotReject::kBadManifest, e.what()});
    }
  }
  return scan;
}

std::string to_string(const SnapshotScan& scan) {
  std::ostringstream os;
  if (scan.found()) {
    os << "snapshot scan: restored step " << scan.step << " from " << scan.path
       << "\n";
  } else {
    os << "snapshot scan: no valid snapshot found\n";
  }
  for (const RejectedSnapshot& r : scan.rejected) {
    os << "  rejected step " << r.step << " ["
       << snapshot_reject_name(r.reason) << "]: " << r.detail << "\n";
  }
  return std::move(os).str();
}

CheckpointConfig backed_checkpoint_config(const Snapshot& snap,
                                          CheckpointConfig base) {
  base.state_bytes = snap.payload_bytes();
  return base;
}

}  // namespace gaudi::scaleout
