// Deterministic fault injection.
//
// Production training on an HLS-1-class box spends real engineering on the
// assumption our happy-path models ignore: links flap, chips die mid-step,
// DMA transfers hang, and individual TPC kernels straggle.  A simulator is
// the ideal place to study the recovery policies those faults demand —
// faults here are *sampled deterministically*: whether fault class K fires
// at site S is a pure function of (seed, K, S) through the counter-based
// RNG, so the same seed reproduces the exact fault schedule, recovery
// decisions, and final numerics on any platform, and a run can re-query any
// site without perturbing the others (no generator state to advance).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace gaudi::sim {

/// Taxonomy of injected faults (see DESIGN.md "Fault model & recovery").
enum class FaultKind : std::uint8_t {
  kTransientLink,    ///< one RoCE transfer drops; a retry succeeds
  kLinkDegradation,  ///< a link runs at reduced bandwidth for a step
  kChipFailure,      ///< a chip dies mid-step and leaves the ring
  kDmaTimeout,       ///< an on-chip DMA transfer times out and retries
  kTpcStraggler,     ///< a TPC kernel runs slower by a multiplicative factor
  kHbmPressure,      ///< HBM capacity pressure stalls a step (paging/compaction)
  kSdcBitFlip,       ///< silent data corruption: an HBM bit flips in a live buffer
  /// A checkpoint write is torn or corrupted on the storage path: the data
  /// file is truncated mid-write, the manifest commit is lost, or a stored
  /// bit flips.  Fired inside the snapshot writer's simulated torn-write
  /// window (scaleout/snapshot.hpp); the writer does not observe it — the
  /// damage is found (and survived) at the next resume.
  kCheckpointCorruption,
};
inline constexpr std::size_t kFaultKindCount = 8;

[[nodiscard]] const char* fault_kind_name(FaultKind k);

/// Per-class fault rates (probability that the class fires at one site) and
/// fault magnitudes.  All rates default to zero: a default-constructed
/// profile never fires, so the injector is free to exist on the default
/// path.
struct FaultProfile {
  double transient_link_rate = 0.0;    ///< per link per ring step
  double link_degradation_rate = 0.0;  ///< per link per training step
  double chip_failure_rate = 0.0;      ///< per chip per training step
  double dma_timeout_rate = 0.0;       ///< per DMA transfer attempt
  double tpc_straggler_rate = 0.0;     ///< per TPC node execution
  double hbm_pressure_rate = 0.0;      ///< per training step
  /// Probability that an HBM bit flips in one node's live output buffer
  /// between its production and its consumption (silent data corruption).
  /// Deliberately absent from stress(): the functional cross-check suites
  /// run under stress rates, and SDC by definition changes the numerics.
  double sdc_bit_flip_rate = 0.0;
  /// Probability that one checkpoint save lands torn or bit-flipped on disk
  /// (per snapshot).  Absent from stress()/from_mtbf_steps() for the same
  /// reason as SDC: it only matters to runs that write snapshots, and those
  /// opt in explicitly.
  double checkpoint_corruption_rate = 0.0;

  /// Duration multiplier of a straggling TPC kernel (> 1).
  double straggler_slowdown = 2.0;
  /// Bandwidth multiplier of a degraded link (in (0, 1]).
  double degraded_bandwidth_factor = 0.5;
  /// Stall charged to a step under HBM capacity pressure.
  SimTime hbm_pressure_stall = SimTime::from_ms(5.0);
  /// First retry delay after a timed-out DMA; doubles per attempt.
  SimTime dma_retry_backoff = SimTime::from_us(5.0);
  /// DMA attempts before the transfer is forced through (the model never
  /// fails a single-chip run terminally; the cost is the point).
  std::uint32_t dma_max_attempts = 4;

  /// All rates zero — the injector never fires.
  [[nodiscard]] static FaultProfile disabled() { return {}; }

  /// Rates derived from a mean-time-between-failures expressed in training
  /// steps: chip failures dominate at 1/mtbf per step (split across the
  /// box), with transient link errors two decades more frequent and the
  /// rest scaled between — the hierarchy reliability studies report.
  [[nodiscard]] static FaultProfile from_mtbf_steps(double mtbf_steps,
                                                    std::uint32_t chips = 8);

  /// Aggressive rates for fuzzing the stall/retry machinery.
  [[nodiscard]] static FaultProfile stress();

  [[nodiscard]] double rate(FaultKind k) const;
  [[nodiscard]] bool any_rate_positive() const;
};

/// One materialized fault, produced when enumerating a schedule up front.
struct FaultEvent {
  FaultKind kind = FaultKind::kTransientLink;
  std::uint64_t step = 0;  ///< training step the fault lands in
  std::uint32_t unit = 0;  ///< chip / link index within the step
  double magnitude = 0.0;  ///< slowdown or bandwidth factor; 0 if n/a
};

/// Deterministic fault oracle.  Copyable, cheap, and stateless after
/// construction; every query is a pure function of (seed, kind, site).
class FaultInjector {
 public:
  /// Disabled injector: `fires` is always false.
  FaultInjector() = default;
  FaultInjector(std::uint64_t seed, FaultProfile profile)
      : rng_(seed, 0xFA517ull), profile_(profile) {}

  [[nodiscard]] bool enabled() const { return profile_.any_rate_positive(); }
  [[nodiscard]] const FaultProfile& profile() const { return profile_; }

  /// Does fault class `kind` fire at `site`?  Site encodings are owned by
  /// the querying layer (see `site()` for the common (step, unit) packing).
  [[nodiscard]] bool fires(FaultKind kind, std::uint64_t site) const {
    const double r = profile_.rate(kind);
    if (r <= 0.0) return false;
    return rng_.stream(static_cast<std::uint64_t>(kind) + 1).uniform(site) <
           static_cast<float>(r);
  }

  /// Packs a (step, unit) pair into a site id.  splitmix64 decorrelates
  /// steps so unit indices never collide across neighbouring steps.
  [[nodiscard]] static std::uint64_t site(std::uint64_t step,
                                          std::uint64_t unit) {
    return splitmix64(step) + unit;
  }

  /// The fault draw of one synchronous step, unit c at site(step, c): the
  /// chips among [0, chips) that die (kChipFailure), ascending ...
  [[nodiscard]] std::vector<std::uint32_t> chips_lost(
      std::uint64_t step, std::uint32_t chips) const;
  /// ... and the slowdown of the slowest straggler (kTpcStraggler) among
  /// the chips [0, chips) that are not in `lost` (those that died at this
  /// step), 1 when none straggles.  Adds the stragglers to `*count` when
  /// given.
  [[nodiscard]] double slowest_straggler(std::uint64_t step, std::uint32_t chips,
                                         const std::vector<std::uint32_t>& lost,
                                         std::uint32_t* count = nullptr) const;

  /// Deterministic coordinates of a fired kSdcBitFlip: which element of the
  /// corrupted buffer flips, and which bit within the element.  Bits are
  /// drawn from the high-mantissa/exponent range ([20, 30] for 32-bit
  /// elements, [4, 14] for 16-bit) — the flips that actually perturb or
  /// explode a value, as opposed to low-mantissa noise.
  [[nodiscard]] std::uint64_t sdc_element(std::uint64_t site,
                                          std::uint64_t count) const {
    if (count == 0) return 0;
    return rng_.stream(kSdcElementStream).below(site, count);
  }
  [[nodiscard]] std::uint32_t sdc_bit(std::uint64_t site,
                                      std::uint32_t element_bits) const {
    const std::uint32_t base = element_bits >= 32 ? 20u : 4u;
    return base + static_cast<std::uint32_t>(
                      rng_.stream(kSdcBitStream).below(site, 11));
  }

  /// Deterministic shape of a fired kCheckpointCorruption: which of `modes`
  /// failure shapes the torn write takes (lost commit, truncation, bit
  /// flip), and a coordinate in [0, n) for where the damage lands.
  [[nodiscard]] std::uint64_t checkpoint_mode(std::uint64_t site,
                                              std::uint64_t modes) const {
    if (modes == 0) return 0;
    return rng_.stream(kCheckpointModeStream).below(site, modes);
  }
  [[nodiscard]] std::uint64_t checkpoint_offset(std::uint64_t site,
                                                std::uint64_t n) const {
    if (n == 0) return 0;
    return rng_.stream(kCheckpointOffsetStream).below(site, n);
  }

 private:
  // Frozen stream indices for the magnitude/coordinate draws above.  fires()
  // occupies streams 1..kFaultKindCount (kind + 1); these sit beyond it.
  // The values are pinned rather than derived from kFaultKindCount so that
  // adding a fault kind never silently reshuffles every seeded schedule.
  static constexpr std::uint64_t kSdcElementStream = 8;
  static constexpr std::uint64_t kSdcBitStream = 9;
  static constexpr std::uint64_t kCheckpointModeStream = 16;
  static constexpr std::uint64_t kCheckpointOffsetStream = 17;

  CounterRng rng_{};
  FaultProfile profile_{};
};

/// Enumerates every fault the injector fires over an N-step run on a
/// `chips`-chip box, in (step, kind, unit) order.  This is the "fault
/// schedule" the determinism tests byte-compare: same (seed, profile) ⇒
/// identical vector ⇒ identical `to_string`.
[[nodiscard]] std::vector<FaultEvent> fault_schedule(const FaultInjector& inj,
                                                     std::uint64_t steps,
                                                     std::uint32_t chips);

/// One line per fault, stable formatting — byte-comparable across runs.
[[nodiscard]] std::string to_string(const std::vector<FaultEvent>& schedule);

/// Injector configured from the environment: GAUDI_FAULTS enables it (same
/// boolean grammar as GAUDI_VALIDATE, hardened in sim/env.hpp), GAUDI_FAULT_SEED
/// seeds it (default 0xFA517).  Returns nullptr when disabled — the runtime's
/// default path never consults the injector.
[[nodiscard]] const FaultInjector* fault_injector_from_env();

}  // namespace gaudi::sim
