// Serving requests: the unit of work a multi-tenant inference front-end
// schedules.
//
// A request arrives at a simulated instant carrying a prompt to prefill and
// a number of tokens to generate; priorities order preemption when the KV
// pool runs out, and an optional deadline feeds the goodput accounting
// ("useful tokens" = tokens of requests that finished inside their budget).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace gaudi::serve {

struct Request {
  std::int64_t id = 0;
  sim::SimTime arrival{};
  std::int64_t prompt_len = 0;  ///< tokens prefilled before the first output
  std::int64_t output_len = 0;  ///< tokens to generate (>= 1)
  /// Higher values are preempted later; ties break toward earlier arrivals.
  std::int32_t priority = 0;
  /// Completion budget measured from arrival; zero means no deadline.
  sim::SimTime deadline{};
};

/// Terminal state of a request after the simulation.  Every offered request
/// ends in exactly one of these — the scheduler never loses one silently,
/// including across chip failures (see ContinuousBatchScheduler).
enum class RequestOutcome : std::uint8_t {
  kCompleted,  ///< generated all of output_len
  kRejected,   ///< refused at admission (can never fit the pool / max_seq)
  kDropped,    ///< abandoned because its deadline expired while queued
  kShed,       ///< refused by overload control (queue depth / KV headroom)
  kTimedOut,   ///< aborted by the per-request TTFT/ITL watchdog
  kFailed,     ///< chip failures exhausted the retry budget
};

[[nodiscard]] const char* outcome_name(RequestOutcome o);

}  // namespace gaudi::serve
