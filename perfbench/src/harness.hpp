// Shared harness of the gaudisim benchmark: host clocks, the in-memory span
// recorder of the traced run, metric records, output checks, and the
// workload interface every workload implements.
//
// Spans are recorded only in benchmark code, one around each call into a
// layer's public function.  With tracing off a span costs one branch, so
// the untraced run (which yields every end-to-end metric) executes the same
// calls as the traced run (which yields the per-layer metrics).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One span: a call from benchmark code into a layer's public function.
struct Span {
  std::string name;  ///< layer call, e.g. "graph.runtime.run"
  std::string tag;   ///< pass, rung or session id, e.g. "pass 3 rung 2"
  double start_s = 0.0;  ///< host seconds since the recorder's epoch
  double end_s = 0.0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at top level
};

/// Span recorder.  Spans stay in memory and are written as Chrome-trace
/// JSON when the benchmark ends.
class Tracer {
 public:
  /// Records one span from construction to destruction (when enabled).
  class Scope {
   public:
    Scope(const char* name, const std::string& tag);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    std::int32_t index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per span name over spans [first, spans().size()): each
  /// span's duration minus the part its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::size_t first) const;

  /// Chrome-trace ("catapult") JSON, complete events in microseconds.
  void write_chrome_json(const std::string& path) const;

  /// Appends spans recorded by a forked child of this process, which
  /// shares this recorder's epoch and its spans up to the fork.
  void append(const std::vector<Span>& spans) {
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// The process-wide recorder.
[[nodiscard]] Tracer& tracer();

/// A named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order; setting a name again overwrites it.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// The metric named `name`, or null.
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
  std::map<std::string, std::size_t> index_;
};

/// Output checks of one workload.  `attempted` counts the workload's
/// operations (requests, graph runs or training steps); a failed check
/// adds the operations it covers to `failed` and records one line.
struct CheckLog {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t checks = 0;
  std::vector<std::string> failures;

  /// Records one check; on failure `ops` operations count as failed.
  void expect(bool ok, const std::string& what, std::int64_t ops = 1);
};

/// Median of `v` (mean of the two middle values for an even count).
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile, the rule serve::percentile documents:
/// sorted[ceil(p/100 * N)] with the rank clamped to [1, N].
[[nodiscard]] double nearest_rank(std::vector<double> v, double p);

/// Mean absolute percentage error of `got` against `want`.
[[nodiscard]] double mean_abs_pct_err(const std::vector<double>& got,
                                      const std::vector<double>& want);

/// One benchmark workload.  The harness constructs it (input generation
/// and construction), runs one cold pass, then repeats warm passes for the
/// measured seconds; checks and metric collection run outside the passes.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// One pass of the workload's fixed work.  `tag` labels its spans.
  /// Returns false when the pass did not complete (its time is not used).
  virtual bool pass(const std::string& tag) = 0;
  /// Per-layer counters read right after the cold pass.
  virtual void after_cold_pass(Metrics& m) = 0;
  /// Output checks (outside the timed passes).
  virtual void check(CheckLog& log) = 0;
  /// Simulated end-to-end metrics this workload exercises.
  virtual void end_to_end(Metrics& m) const = 0;
  /// Per-layer counts and simulated figures of the last pass, plus the
  /// per-layer host times derived from `self_s` (span self seconds of one
  /// traced pass, by span name).
  virtual void per_layer(Metrics& m,
                         const std::map<std::string, double>& self_s) const = 0;
};

using WorkloadPtr = std::unique_ptr<Workload>;

/// Workload factories (one translation unit each).
[[nodiscard]] WorkloadPtr make_serve_ladder(std::uint64_t seed);
[[nodiscard]] WorkloadPtr make_fleet_chaos(std::uint64_t seed);
[[nodiscard]] WorkloadPtr make_paper_sweep(std::uint64_t seed,
                                           const std::string& reference_csv);
[[nodiscard]] WorkloadPtr make_train_functional(std::uint64_t seed);

}  // namespace perfbench
