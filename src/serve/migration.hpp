// Live KV migration & health-driven replica draining (DESIGN.md §13).
//
// The cluster's original answer to a sick replica was abrupt failover with a
// FULL re-prefill: every computed KV row thrown away, even when the failure
// was detected early.  This subsystem moves the paged KV blocks instead —
// chunked streaming over the scaleout RoCE fabric (scaleout/roce.*), with
// link faults (sim/fault.* kTransientLink / kLinkDegradation) retried under
// the fabric's RetryPolicy (scaleout/roce.hpp), a delta-sync pass
// for the tokens the source generated while the base copy was in flight, and
// an atomic cutover after which the destination decodes from the migrated
// blocks with zero re-prefill.
//
// Health scoring: the router cannot see inside a replica, but it can see
// heartbeats arrive late — and in this model an iteration runs long exactly
// when the fault oracle stretched it (kTpcStraggler) or stalled it
// (kHbmPressure).  Each stretched iteration is therefore one health event;
// a replica whose events within a sliding window reach a threshold reads
// degraded (HealthTracker) and is proactively evacuated before the chip dies
// outright.  Administrative drains (planned maintenance) set the router's
// `draining` flag directly.
//
// Everything here is a pure function of (seed, transfer sequence) through
// the counter-based RNG: the same cluster run replays the same chunk-level
// fault schedule byte-for-byte, and a disabled migration config leaves the
// cluster byte-identical to the pre-migration path.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "scaleout/roce.hpp"
#include "sim/fault.hpp"
#include "sim/time.hpp"

namespace gaudi::serve {

/// Knobs of the live-migration path.  Disabled (the default) is inert: no
/// draws, no report lines, byte-identical to the pre-migration cluster.
struct MigrationConfig {
  bool enabled = false;
  /// Paged KV blocks streamed per fabric chunk (one p2p transfer each).
  std::int64_t chunk_blocks = 4;
  /// Link model the KV stream rides (paper §2.1 RoCE ports).  Its retry
  /// policy is the collectives': a dropped chunk pays detection + backoff
  /// and retries; the last attempt is forced through.
  scaleout::RoceConfig roce{};
};

/// Deterministic cost of one KV transfer leg (base copy or delta sync).
struct TransferPlan {
  sim::SimTime duration{};          ///< payload + retries + degradation
  std::int64_t blocks = 0;          ///< KV blocks carried
  std::int64_t chunks = 0;          ///< fabric transfers issued
  std::int64_t link_retries = 0;    ///< kTransientLink drops retried
  std::int64_t degraded_chunks = 0; ///< chunks paced by a degraded link
};

/// Plans the transfer of `rows` KV rows (grouped into `block_tokens`-row
/// paged blocks, `bytes_per_token` bytes each row) over one fabric link.
/// Fault draws key off (`transfer_seq`, chunk, attempt) through the
/// injector's counter RNG, so the plan is a pure function of its inputs —
/// re-planning the same leg returns identical bytes.  A disabled injector
/// yields the clean chunked p2p time exactly.
[[nodiscard]] TransferPlan plan_kv_transfer(const MigrationConfig& cfg,
                                            const sim::FaultInjector& faults,
                                            std::uint64_t transfer_seq,
                                            std::int64_t rows,
                                            std::int64_t block_tokens,
                                            std::size_t bytes_per_token);

/// Sliding-window health score: counts fault-stretched iterations (the
/// heartbeat-latency proxy) within `window`; at or past `degraded_after`
/// events the replica reads degraded until enough events age out.  The
/// verdict is a pure function of (recorded events, now) — no hidden decay
/// state — so the router can query it at any instant deterministically.
class HealthTracker {
 public:
  HealthTracker() = default;
  HealthTracker(sim::SimTime window, std::int64_t degraded_after)
      : window_(window), degraded_after_(degraded_after) {}

  /// Records one stretched-heartbeat event at `now`.
  void record(sim::SimTime now);
  /// Events still inside the window at `now`.
  [[nodiscard]] std::int64_t score(sim::SimTime now) const;
  [[nodiscard]] bool degraded(sim::SimTime now) const;
  /// Earliest instant after `now` at which an event ages out of the window
  /// (the next instant the degraded verdict can flip back); nullopt when no
  /// recorded event outlives `now`.
  [[nodiscard]] std::optional<sim::SimTime> next_decay(sim::SimTime now) const;

 private:
  sim::SimTime window_{};
  std::int64_t degraded_after_ = 0;
  std::deque<sim::SimTime> events_;
};

}  // namespace gaudi::serve
