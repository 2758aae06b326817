// Hardware-trace representation and analysis.
//
// The paper's evidence is SynapseAI profiler traces (Figures 4-9): per-engine
// timelines whose blank areas are the story.  Trace captures the same
// intervals and provides the quantitative reductions the figures are read
// for — busy/idle fractions, idle-gap inventories, per-op time shares — plus
// Chrome-trace JSON export for visual inspection in a trace viewer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/op.hpp"
#include "sim/numerics.hpp"
#include "sim/time.hpp"

namespace gaudi::graph {

/// What kind of activity an event records; lets the validator (and trace
/// viewers) tell node work apart from the transfers and stalls the scheduler
/// inserts around it.
enum class TraceEventKind : std::uint8_t {
  kCompute,    ///< a graph node executing on its engine
  kDma,        ///< inter-engine transfer inserted by the scheduler
  kRecompile,  ///< one-time graph-compiler stall (HOST row)
  kStall,      ///< injected-fault stall nested inside its parent span
  kGuard,      ///< numerics-guard sweep nested at the tail of its exec span
};

/// True for the annotation kinds that nest inside a parent span and are
/// excluded from busy-time accounting (counting them would double-bill the
/// engine).
[[nodiscard]] constexpr bool is_nested_annotation(TraceEventKind k) {
  return k == TraceEventKind::kStall || k == TraceEventKind::kGuard;
}

struct TraceEvent {
  Engine engine = Engine::kNone;
  TraceEventKind kind = TraceEventKind::kCompute;
  std::string name;
  std::int32_t node = -1;
  /// For kDma events: the ValueId being moved and the engine it is moved to
  /// (-1 / kNone otherwise).  Keys the scheduler's per-(value, destination)
  /// transfer dedup so the validator can reconstruct it.
  std::int32_t value = -1;
  Engine dma_dst = Engine::kNone;
  sim::SimTime start{};
  sim::SimTime end{};
  std::uint64_t flops = 0;
  std::size_t bytes = 0;
  /// Retry attempt index for fault-injected kDma re-transfers (0 = first
  /// attempt).  Attempts of one transfer share (value, dma_dst) and carry
  /// strictly increasing retry indices.
  std::uint32_t retry = 0;
  /// Numerics sweep results attached to kGuard events by guarded runs
  /// (has_stats is false on every event of an unguarded run, keeping those
  /// traces byte-identical to pre-guard builds).
  bool has_stats = false;
  sim::NumericsStats stats{};

  [[nodiscard]] sim::SimTime duration() const { return end - start; }
};

/// An idle interval on one engine.
struct Gap {
  sim::SimTime start{};
  sim::SimTime end{};
  [[nodiscard]] sim::SimTime duration() const { return end - start; }
};

class Trace {
 public:
  void add(TraceEvent e);

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// End of the last event (start of the first is defined to be t=0).
  [[nodiscard]] sim::SimTime makespan() const;

  /// Sum of event durations on one engine.
  [[nodiscard]] sim::SimTime busy(Engine e) const;

  /// busy(e) / makespan(); 0 when the trace is empty.
  [[nodiscard]] double utilization(Engine e) const;

  /// Idle intervals on `e` between t=0 and the makespan, longest first
  /// omitted — returned in time order.  These are the "blank areas" of the
  /// paper's figures.
  [[nodiscard]] std::vector<Gap> gaps(Engine e) const;

  /// Total busy time of events whose name contains `substr` on a token
  /// boundary, on `e` (or on all engines when e == Engine::kNone).  A match
  /// must start and end at a non-alphanumeric neighbour (or the string edge):
  /// "exp" matches "h0.q_exp" and "exp" but not "expand" or "index".
  [[nodiscard]] sim::SimTime busy_matching(const std::string& substr,
                                           Engine e = Engine::kNone) const;

  /// Share of engine-busy time taken by events matching `substr` (same
  /// token-boundary rule as busy_matching).
  [[nodiscard]] double share_of_engine(const std::string& substr, Engine e) const;

  /// Busy time grouped by event name (per engine).
  [[nodiscard]] std::map<std::string, sim::SimTime> busy_by_name(Engine e) const;

  /// Chrome-trace JSON ("catapult" format) — loadable in a trace viewer.
  [[nodiscard]] std::string to_chrome_json() const;
  void write_chrome_json(const std::string& path) const;

  /// Compact fixed-width ASCII rendering of the per-engine timelines, the
  /// textual analogue of the paper's figures.
  [[nodiscard]] std::string ascii_timeline(int width = 100) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace gaudi::graph
