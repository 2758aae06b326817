#include "serve/migration.hpp"

#include <algorithm>

namespace gaudi::serve {

TransferPlan plan_kv_transfer(const MigrationConfig& cfg,
                              const sim::FaultInjector& faults,
                              std::uint64_t transfer_seq, std::int64_t rows,
                              std::int64_t block_tokens,
                              std::size_t bytes_per_token) {
  TransferPlan plan{};
  if (rows <= 0) return plan;
  const std::int64_t bt = std::max<std::int64_t>(block_tokens, 1);
  const std::int64_t per_chunk = std::max<std::int64_t>(cfg.chunk_blocks, 1);
  plan.blocks = (rows + bt - 1) / bt;
  plan.chunks = (plan.blocks + per_chunk - 1) / per_chunk;
  const scaleout::RetryPolicy& retry = cfg.roce.retry;
  const std::uint32_t attempts = retry.attempts();

  std::int64_t blocks_left = plan.blocks;
  for (std::int64_t c = 0; c < plan.chunks; ++c) {
    const std::int64_t blocks_here = std::min<std::int64_t>(per_chunk, blocks_left);
    blocks_left -= blocks_here;
    // A paged block streams whole: the wire carries block_tokens rows even
    // when the tail block is partially filled.
    const auto bytes = static_cast<std::size_t>(blocks_here * bt) * bytes_per_token;
    sim::SimTime wire = scaleout::p2p_time(cfg.roce, bytes);

    const auto chunk_u = static_cast<std::uint64_t>(c);
    if (faults.fires(sim::FaultKind::kLinkDegradation,
                     sim::FaultInjector::site(transfer_seq, chunk_u))) {
      const double factor =
          std::clamp(faults.profile().degraded_bandwidth_factor, 1e-6, 1.0);
      wire = sim::SimTime::from_ps(
          static_cast<std::int64_t>(static_cast<double>(wire.ps()) / factor + 0.5));
      plan.degraded_chunks += 1;
    }

    // Transient drops retry under the fabric's policy; the last attempt is
    // forced through (transient means transient — the stream never fails
    // terminally, the cost is the point).
    for (std::uint32_t a = 0; a < attempts; ++a) {
      const bool last = a + 1 == attempts;
      if (!last &&
          faults.fires(sim::FaultKind::kTransientLink,
                       sim::FaultInjector::site(
                           transfer_seq, chunk_u * attempts + a))) {
        plan.duration += retry.failed_attempt(a);
        plan.link_retries += 1;
        continue;
      }
      plan.duration += wire;
      break;
    }
  }
  return plan;
}

void HealthTracker::record(sim::SimTime now) {
  // Age out events that can no longer influence any verdict at t >= now.
  while (!events_.empty() && events_.front() + window_ <= now) events_.pop_front();
  events_.push_back(now);
}

std::int64_t HealthTracker::score(sim::SimTime now) const {
  std::int64_t n = 0;
  for (const auto t : events_) {
    if (t <= now && now < t + window_) n += 1;
  }
  return n;
}

bool HealthTracker::degraded(sim::SimTime now) const {
  return degraded_after_ > 0 && score(now) >= degraded_after_;
}

std::optional<sim::SimTime> HealthTracker::next_decay(sim::SimTime now) const {
  std::optional<sim::SimTime> best;
  for (const auto t : events_) {
    const sim::SimTime out = t + window_;
    if (out > now && (!best || out < *best)) best = out;
  }
  return best;
}

}  // namespace gaudi::serve
