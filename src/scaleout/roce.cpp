#include "scaleout/roce.hpp"

#include <algorithm>
#include <string>

#include "sim/error.hpp"

namespace gaudi::scaleout {

sim::SimTime RetryPolicy::failed_attempt(std::uint32_t attempt) const {
  return detection_timeout +
         sim::backoff_delay(base_backoff, sim::SimTime::max(),
                            static_cast<std::int32_t>(attempt) + 1);
}

std::uint32_t RetryPolicy::attempts() const {
  GAUDI_CHECK(max_attempts >= 1, "retry policy needs >= 1 attempt");
  return max_attempts;
}

sim::SimTime p2p_time(const RoceConfig& cfg, std::size_t bytes) {
  const double stream_s =
      static_cast<double>(bytes) / cfg.link_bandwidth_bytes_per_s;
  return cfg.link_latency + sim::SimTime::from_seconds(stream_s);
}

double p2p_effective_bandwidth(const RoceConfig& cfg, std::size_t bytes) {
  const sim::SimTime t = p2p_time(cfg, bytes);
  return t > sim::SimTime::zero() ? static_cast<double>(bytes) / t.seconds() : 0.0;
}

std::vector<std::uint32_t> lose_chips(const RoceConfig& cfg,
                                      const sim::FaultInjector& faults,
                                      std::uint64_t step, std::uint32_t chips,
                                      FaultStats& stats) {
  std::vector<std::uint32_t> lost = faults.chips_lost(step, chips);
  if (lost.size() == chips) {
    throw sim::ResourceExhausted(
        "every chip failed at step " + std::to_string(step) +
        "; no surviving ring to re-form");
  }
  if (!lost.empty()) {
    stats.chips_lost = static_cast<std::uint32_t>(lost.size());
    stats.reformation_overhead =
        cfg.retry.detection_timeout + cfg.reformation_latency;
  }
  return lost;
}

LinkFaults link_faults(const RetryPolicy& retry,
                       const sim::FaultInjector& faults, std::uint64_t step,
                       std::uint32_t link, FaultStats& stats) {
  LinkFaults lf;
  const std::uint64_t site = sim::FaultInjector::site(step, link);
  if (faults.fires(sim::FaultKind::kLinkDegradation, site)) {
    ++stats.degraded_links;
    lf.slowdown =
        1.0 / std::max(1e-6, faults.profile().degraded_bandwidth_factor);
  }
  // Attempt 0 draws at the canonical (step, link) site, so fault_schedule
  // enumerates the first-failure draws this consumes; later attempts derive
  // from it.
  const std::uint32_t attempts = retry.attempts();
  for (std::uint32_t a = 0; a + 1 < attempts; ++a) {
    if (!faults.fires(sim::FaultKind::kTransientLink,
                      a == 0 ? site : sim::splitmix64(site) + a)) {
      break;
    }
    ++stats.transient_faults;
    ++stats.retries;
    lf.retry_overhead += retry.failed_attempt(a);
  }
  return lf;
}

}  // namespace gaudi::scaleout
