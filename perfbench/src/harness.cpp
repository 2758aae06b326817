#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer& tracer() {
  static Tracer t;
  return t;
}

Tracer::Scope::Scope(const char* name, const std::string& tag) {
  Tracer& t = tracer();
  if (!t.enabled_) return;
  index_ = static_cast<std::int32_t>(t.spans_.size());
  Span s;
  s.name = name;
  s.tag = tag;
  s.parent = t.open_.empty() ? -1 : t.open_.back();
  s.start_s = seconds_between(t.epoch_, Clock::now());
  t.spans_.push_back(std::move(s));
  t.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Tracer& t = tracer();
  t.spans_[static_cast<std::size_t>(index_)].end_s =
      seconds_between(t.epoch_, Clock::now());
  t.open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds(std::size_t first) const {
  std::map<std::string, double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += s.end_s - s.start_s;
    if (s.parent >= static_cast<std::int32_t>(first)) {
      out[spans_[static_cast<std::size_t>(s.parent)].name] -=
          s.end_s - s.start_s;
    }
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open trace output " + path);
  f << "{\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6);
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name)
      << "\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
      << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
      << ",\"tag\":\"" << json_escape(s.tag) << "\"}}";
  }
  f << "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (!f) throw std::runtime_error("failed writing trace output " + path);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    items_[it->second] = Metric{name, value, unit};
    return;
  }
  index_.emplace(name, items_.size());
  items_.push_back(Metric{name, value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &items_[it->second];
}

void CheckLog::expect(bool ok, const std::string& what, std::int64_t ops) {
  ++checks;
  if (ok) return;
  failed += ops;
  failures.push_back(what);
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double nearest_rank(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double mean_abs_pct_err(const std::vector<double>& got,
                        const std::vector<double>& want) {
  double sum = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    sum += std::fabs(got[i] - want[i]) / std::fabs(want[i]) * 100.0;
  }
  return got.empty() ? 0.0 : sum / static_cast<double>(got.size());
}

}  // namespace perfbench
