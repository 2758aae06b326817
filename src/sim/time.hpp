// Time base for the simulator.
//
// All simulated durations are carried as integral picoseconds so that
// scheduling arithmetic is exact and deterministic across platforms; cycle
// counts are converted through an engine's clock frequency.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace gaudi::sim {

/// Cycle count on some engine clock.
using Cycles = std::uint64_t;

/// A point in (or span of) simulated time, in integral picoseconds.
///
/// Picoseconds give exact arithmetic up to ~106 days of simulated time in a
/// signed 64-bit value, far beyond any profile this suite produces.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t ps) : ps_(ps) {}

  [[nodiscard]] static constexpr SimTime zero() { return SimTime{0}; }
  [[nodiscard]] static constexpr SimTime from_ps(std::int64_t ps) { return SimTime{ps}; }
  [[nodiscard]] static constexpr SimTime from_ns(double ns) {
    return SimTime{static_cast<std::int64_t>(ns * 1e3 + 0.5)};
  }
  [[nodiscard]] static constexpr SimTime from_us(double us) {
    return SimTime{static_cast<std::int64_t>(us * 1e6 + 0.5)};
  }
  [[nodiscard]] static constexpr SimTime from_ms(double ms) {
    return SimTime{static_cast<std::int64_t>(ms * 1e9 + 0.5)};
  }
  [[nodiscard]] static constexpr SimTime from_seconds(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e12 + 0.5)};
  }
  [[nodiscard]] static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  /// This time slowed down by `factor` >= 1, to the nearest picosecond; a
  /// factor of 1 or less leaves it unchanged.
  [[nodiscard]] constexpr SimTime stretched(double factor) const {
    return factor <= 1.0 ? *this
                         : SimTime{static_cast<std::int64_t>(
                               static_cast<double>(ps_) * factor + 0.5)};
  }

  [[nodiscard]] constexpr std::int64_t ps() const { return ps_; }
  [[nodiscard]] constexpr double ns() const { return static_cast<double>(ps_) * 1e-3; }
  [[nodiscard]] constexpr double us() const { return static_cast<double>(ps_) * 1e-6; }
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(ps_) * 1e-9; }
  [[nodiscard]] constexpr double seconds() const { return static_cast<double>(ps_) * 1e-12; }

  constexpr SimTime& operator+=(SimTime o) { ps_ += o.ps_; return *this; }
  constexpr SimTime& operator-=(SimTime o) { ps_ -= o.ps_; return *this; }

  friend constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime{a.ps_ + b.ps_}; }
  friend constexpr SimTime operator-(SimTime a, SimTime b) { return SimTime{a.ps_ - b.ps_}; }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) { return SimTime{a.ps_ * k}; }
  friend constexpr SimTime operator*(std::int64_t k, SimTime a) { return a * k; }
  friend constexpr auto operator<=>(SimTime a, SimTime b) = default;

 private:
  std::int64_t ps_ = 0;
};

/// Engine clock; converts cycle counts to simulated time (rounding up, since
/// a partial cycle still occupies the engine for a full cycle).
class Clock {
 public:
  constexpr Clock() = default;
  constexpr explicit Clock(double hz) : hz_(hz) {}

  [[nodiscard]] constexpr double hz() const { return hz_; }
  [[nodiscard]] constexpr double ghz() const { return hz_ * 1e-9; }

  [[nodiscard]] constexpr SimTime period() const {
    return SimTime::from_ps(static_cast<std::int64_t>(1e12 / hz_ + 0.5));
  }

  [[nodiscard]] SimTime to_time(Cycles cycles) const {
    const double ps = static_cast<double>(cycles) * (1e12 / hz_);
    return SimTime::from_ps(static_cast<std::int64_t>(ps + 0.5));
  }

  [[nodiscard]] Cycles to_cycles(SimTime t) const {
    const double c = t.seconds() * hz_;
    return static_cast<Cycles>(c + 0.999999);  // round up: partial cycle occupies a cycle
  }

 private:
  double hz_ = 1e9;
};

/// Human-readable rendering ("12.34 ms", "987.00 us", ...).
[[nodiscard]] std::string to_string(SimTime t);

/// Exponential backoff with a cap: `base * 2^(attempt-1)` clamped to `cap`.
/// `attempt` counts from 1 (the first retry); the delay saturates at `cap`
/// before the doubling can overflow.  Every retry path (the RoCE fabric's
/// collectives and KV migration, DMA re-issue, serving re-queue and the
/// router's failover) waits this long; callers with no ceiling pass
/// SimTime::max().
[[nodiscard]] SimTime backoff_delay(SimTime base, SimTime cap,
                                    std::int32_t attempt);

}  // namespace gaudi::sim
