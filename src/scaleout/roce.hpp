// Inter-processor communication model.
//
// Each Gaudi integrates ten 100 GbE ports with RoCE v2 engines ("for
// communications between different processors, GAUDI includes on-chip RoCE
// v2 engines", paper §2.1); inside an HLS-1, seven ports connect each
// processor to the other seven (all-to-all), the rest leave the box.  The
// link model costs point-to-point transfers; collectives build on it.
//
// Every model draws its faults (sim/fault.hpp) through the link and chip
// draws below; with a disabled injector each draw is empty, and each
// model's arithmetic is the fault-free one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/fault.hpp"
#include "sim/time.hpp"

namespace gaudi::scaleout {

/// Recovery from transient link faults: a dropped transfer pays the ack
/// timeout plus a backoff that doubles per attempt, then retries; the last
/// attempt is forced through (transient means transient).
struct RetryPolicy {
  std::uint32_t max_attempts = 4;  ///< attempts per transfer
  sim::SimTime base_backoff = sim::SimTime::from_us(100.0);  ///< 1st retry
  /// Time to detect a dead transfer / dead peer (ack timeout).
  sim::SimTime detection_timeout = sim::SimTime::from_us(500.0);

  /// Wall-clock failed attempt `attempt` (0-based) costs: detection plus
  /// the backoff before the next attempt.
  [[nodiscard]] sim::SimTime failed_attempt(std::uint32_t attempt) const;
  /// `max_attempts`; throws sim::InvalidArgument when it is 0, since every
  /// transfer needs the attempt that is forced through.
  [[nodiscard]] std::uint32_t attempts() const;
};

struct RoceConfig {
  /// Usable payload bandwidth of one 100 GbE port after protocol overhead.
  double link_bandwidth_bytes_per_s = 11.0e9;
  /// One-way message latency (NIC + switchless in-box hop).
  sim::SimTime link_latency = sim::SimTime::from_us(2.0);
  /// Ports available toward in-box peers (HLS-1: all-to-all over 7).
  std::uint32_t intra_box_ports = 7;
  /// Processors in the box.
  std::uint32_t num_chips = 8;
  RetryPolicy retry{};  ///< transient-fault recovery on every link
  /// Cost of elastic re-formation after a chip loss: membership agreement
  /// plus shard-ownership redistribution over the fabric.
  sim::SimTime reformation_latency = sim::SimTime::from_ms(2.0);
};

/// Fault accounting of one collective or step; all zero without faults.
struct FaultStats {
  std::uint32_t transient_faults = 0;
  std::uint32_t retries = 0;
  std::uint32_t degraded_links = 0;
  std::uint32_t chips_lost = 0;
  std::uint32_t stragglers = 0;
  sim::SimTime retry_overhead{};        ///< wasted attempts + backoff
  sim::SimTime degradation_overhead{};  ///< slow-link stretch
  sim::SimTime reformation_overhead{};  ///< detection + re-formation

  /// Recovery time on top of the fault-free exchange.
  [[nodiscard]] sim::SimTime overhead() const {
    return retry_overhead + degradation_overhead + reformation_overhead;
  }
};

/// Time to move `bytes` point-to-point over one link.
[[nodiscard]] sim::SimTime p2p_time(const RoceConfig& cfg, std::size_t bytes);

/// Effective bandwidth of a point-to-point transfer including latency.
[[nodiscard]] double p2p_effective_bandwidth(const RoceConfig& cfg,
                                             std::size_t bytes);

/// The chips among [0, chips) that die at `step`, ascending.  Any loss
/// charges `stats` one detection + re-formation round (simultaneous losses
/// share it).  Throws sim::ResourceExhausted when no chip survives.
std::vector<std::uint32_t> lose_chips(const RoceConfig& cfg,
                                      const sim::FaultInjector& faults,
                                      std::uint64_t step, std::uint32_t chips,
                                      FaultStats& stats);

/// Link `link`'s faults at `step`, counted in `stats`.
struct LinkFaults {
  double slowdown = 1.0;  ///< 1 / bandwidth factor when degraded
  sim::SimTime retry_overhead{};  ///< the link's failed attempts
};
[[nodiscard]] LinkFaults link_faults(const RetryPolicy& retry,
                                     const sim::FaultInjector& faults,
                                     std::uint64_t step, std::uint32_t link,
                                     FaultStats& stats);

}  // namespace gaudi::scaleout
