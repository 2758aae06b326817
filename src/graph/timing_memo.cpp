#include "graph/timing_memo.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "memory/checksum.hpp"
#include "sim/env.hpp"
#include "sim/error.hpp"

namespace gaudi::graph {

namespace {

constexpr const char* kMemoMagic = "gaudi-timing-memo v1";
constexpr std::string_view kWhat = "timing-memo file";

}  // namespace

TimingMemo& TimingMemo::global() {
  static TimingMemo memo;
  static const bool loaded = [] {
    const std::string path = memo_file_from_env();
    if (path.empty()) return false;
    if (!std::ifstream(path).good()) return false;  // fresh cache file
    try {
      memo.load_times(path);
    } catch (const sim::CheckpointError& e) {
      // Persistence accelerates, it never gates: a damaged cache file is
      // reported once and the memo starts empty.
      std::fprintf(stderr, "warning: ignoring damaged GAUDI_MEMO_FILE %s: %s\n",
                   path.c_str(), e.what());
    }
    return true;
  }();
  (void)loaded;
  return memo;
}

bool TimingMemo::find_time(const std::string& key, sim::SimTime* out) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = times_.find(key);
  if (it == times_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  *out = it->second;
  return true;
}

void TimingMemo::insert_time(const std::string& key, sim::SimTime t) {
  const std::lock_guard<std::mutex> lock(mu_);
  times_.emplace(key, t);
}

std::size_t TimingMemo::save_times(const std::string& path) const {
  std::vector<std::pair<std::string, sim::SimTime>> entries;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    entries.assign(times_.begin(), times_.end());
  }
  std::sort(entries.begin(), entries.end());
  std::ostringstream body;
  body << kMemoMagic << "\n";
  body << "count " << entries.size() << "\n";
  for (const auto& [key, t] : entries) body << key << ' ' << t.ps() << "\n";
  std::string file = std::move(body).str();
  file += "checksum " + memory::hex16(memory::fnv1a64(file)) + "\n";
  memory::write_file_atomic(path, file, kWhat);
  return entries.size();
}

std::size_t TimingMemo::load_times(const std::string& path) {
  const std::string text = memory::read_file(path, kWhat);

  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) break;  // trailing garbage caught below
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  if (lines.empty()) {
    throw sim::CheckpointTruncated("timing-memo file " + path + " is empty");
  }
  if (lines[0] != kMemoMagic) {
    throw sim::CheckpointVersionSkew("timing-memo file " + path +
                                     " has magic '" + lines[0] +
                                     "', expected '" + kMemoMagic + "'");
  }
  if (lines.size() < 2 || lines[1].rfind("count ", 0) != 0) {
    throw sim::CheckpointTruncated("timing-memo file " + path +
                                   " is missing its entry count");
  }
  std::size_t count = 0;
  try {
    count = std::stoull(lines[1].substr(6));
  } catch (const std::exception&) {
    throw sim::CheckpointError("timing-memo file " + path +
                               " has a garbled entry count '" + lines[1] +
                               "'");
  }
  if (lines.size() != count + 3) {
    throw sim::CheckpointTruncated(
        "timing-memo file " + path + " promises " + std::to_string(count) +
        " entries but holds " +
        std::to_string(lines.size() >= 3 ? lines.size() - 3 : 0));
  }
  const std::string& sum_line = lines.back();
  if (sum_line.rfind("checksum ", 0) != 0) {
    throw sim::CheckpointTruncated("timing-memo file " + path +
                                   " is missing its checksum trailer");
  }
  // The checksum covers every byte before the trailer line.
  const std::string_view body =
      std::string_view(text).substr(0, text.rfind("checksum "));
  if (sum_line.substr(9) != memory::hex16(memory::fnv1a64(body))) {
    throw sim::CheckpointChecksumMismatch("timing-memo file " + path +
                                          " fails its checksum");
  }

  std::vector<std::pair<std::string, sim::SimTime>> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& line = lines[2 + i];
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      throw sim::CheckpointError("timing-memo file " + path +
                                 " has a garbled entry '" + line + "'");
    }
    std::int64_t ps = 0;
    try {
      std::size_t used = 0;
      ps = std::stoll(line.substr(sp + 1), &used);
      if (used != line.size() - sp - 1) throw std::invalid_argument("");
    } catch (const std::exception&) {
      throw sim::CheckpointError("timing-memo file " + path +
                                 " has a garbled entry '" + line + "'");
    }
    if (ps < 0) {
      throw sim::CheckpointError("timing-memo file " + path +
                                 " holds a negative makespan in '" + line +
                                 "'");
    }
    entries.emplace_back(line.substr(0, sp), sim::SimTime::from_ps(ps));
  }

  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, t] : entries) times_.emplace(std::move(key), t);
  return entries.size();
}

std::uint64_t TimingMemo::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t TimingMemo::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t TimingMemo::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return times_.size();
}

void TimingMemo::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  times_.clear();
  hits_ = 0;
  misses_ = 0;
}

bool timing_only_from_env() { return sim::env_flag("GAUDI_TIMING_ONLY", false); }

std::string memo_file_from_env() {
  const char* path = std::getenv("GAUDI_MEMO_FILE");
  return path == nullptr ? std::string{} : std::string{path};
}

std::size_t save_memo_to_env_file() {
  const std::string path = memo_file_from_env();
  if (path.empty()) return 0;
  return TimingMemo::global().save_times(path);
}

}  // namespace gaudi::graph
