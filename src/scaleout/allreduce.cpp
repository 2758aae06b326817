#include "scaleout/allreduce.hpp"

#include <algorithm>

#include "sim/error.hpp"

namespace gaudi::scaleout {

AllReduceResult ring_all_reduce_time(const RoceConfig& cfg, std::size_t bytes,
                                     std::uint32_t chips,
                                     const sim::FaultInjector& faults,
                                     std::uint64_t step) {
  GAUDI_CHECK(chips >= 1 && chips <= cfg.num_chips,
              "chip count outside the box");
  AllReduceResult r;
  // Chip losses first: they decide the ring the exchange actually runs on.
  r.lost_chips = lose_chips(cfg, faults, step, chips, r.faults);
  const std::uint32_t ring = chips - r.faults.chips_lost;
  r.surviving_chips = ring;
  r.duration = r.faults.reformation_overhead;
  if (ring == 1 || bytes == 0) {
    return r;
  }
  // 2(P-1) pipelined steps, each transferring ceil(N/P) bytes per chip; all
  // chips move in parallel, so the wall-clock is one chip's sequence.
  const std::size_t chunk = (bytes + ring - 1) / ring;
  r.steps = 2ull * (ring - 1);
  r.bytes_moved_per_chip = static_cast<std::size_t>(r.steps) * chunk;
  // Ring position l is the link chip l sends on.  The ring rotates through
  // every link each step, so the slowest link paces every step.
  const sim::SimTime base = p2p_time(cfg, chunk);
  sim::SimTime slowest = base;
  for (std::uint32_t l = 0; l < ring; ++l) {
    const LinkFaults lf = link_faults(cfg.retry, faults, step, l, r.faults);
    slowest = std::max(slowest, base.stretched(lf.slowdown));
    r.faults.retry_overhead =
        std::max(r.faults.retry_overhead, lf.retry_overhead);
  }
  const auto steps = static_cast<std::int64_t>(r.steps);
  r.faults.degradation_overhead = (slowest - base) * steps;
  r.duration += slowest * steps + r.faults.retry_overhead;
  return r;
}

AllReduceResult ring_all_reduce(const RoceConfig& cfg,
                                std::vector<tensor::Tensor>& shards,
                                ReduceOp op, const sim::FaultInjector& faults,
                                std::uint64_t step) {
  GAUDI_CHECK(!shards.empty(), "all-reduce needs at least one shard");
  for (const auto& s : shards) {
    GAUDI_CHECK(s.defined() && s.dtype() == tensor::DType::F32,
                "all-reduce shards must be real f32 tensors");
    // Shape (not merely element-count) equality: a [2,3] shard meeting a
    // [3,2] one is a sharding bug upstream, not a reducible pair.
    GAUDI_CHECK(s.shape() == shards[0].shape(),
                "all-reduce shards must have equal shapes");
  }

  const std::int64_t n = shards[0].numel();
  const AllReduceResult timing =
      ring_all_reduce_time(cfg, static_cast<std::size_t>(n) * 4,
                           static_cast<std::uint32_t>(shards.size()), faults,
                           step);
  // Elastic re-formation: the failed chips' shards drop out and the
  // survivors reduce; the exchange is functional, so their sum is exact.
  for (auto it = timing.lost_chips.rbegin(); it != timing.lost_chips.rend();
       ++it) {
    shards.erase(shards.begin() + *it);
  }
  const auto chips = static_cast<std::uint32_t>(shards.size());
  if (chips == 1) {
    return timing;
  }

  // Chunk boundaries: chunk c covers [bounds[c], bounds[c+1]).
  std::vector<std::int64_t> bounds(chips + 1);
  for (std::uint32_t c = 0; c <= chips; ++c) {
    bounds[c] = n * c / chips;
  }

  // Reduce-scatter: after step s, chip i holds the running sum of chunk
  // (i - s) from its upstream neighbours.
  for (std::uint32_t s = 0; s < chips - 1; ++s) {
    // All sends happen "simultaneously"; stage into temporaries first.
    std::vector<std::vector<float>> in_flight(chips);
    for (std::uint32_t i = 0; i < chips; ++i) {
      const std::uint32_t chunk = (i + chips - s) % chips;  // chunk to send
      const auto src = shards[i].f32();
      in_flight[(i + 1) % chips].assign(
          src.begin() + bounds[chunk], src.begin() + bounds[chunk + 1]);
    }
    for (std::uint32_t i = 0; i < chips; ++i) {
      const std::uint32_t chunk = (i + chips - 1 - s) % chips;  // received
      auto dst = shards[i].f32();
      const auto& recv = in_flight[i];
      for (std::size_t j = 0; j < recv.size(); ++j) {
        dst[static_cast<std::size_t>(bounds[chunk]) + j] += recv[j];
      }
    }
  }

  // All-gather: circulate the finished chunks.
  for (std::uint32_t s = 0; s < chips - 1; ++s) {
    std::vector<std::vector<float>> in_flight(chips);
    for (std::uint32_t i = 0; i < chips; ++i) {
      const std::uint32_t chunk = (i + 1 + chips - s) % chips;
      const auto src = shards[i].f32();
      in_flight[(i + 1) % chips].assign(
          src.begin() + bounds[chunk], src.begin() + bounds[chunk + 1]);
    }
    for (std::uint32_t i = 0; i < chips; ++i) {
      const std::uint32_t chunk = (i + chips - s) % chips;
      auto dst = shards[i].f32();
      const auto& recv = in_flight[i];
      std::copy(recv.begin(), recv.end(),
                dst.begin() + bounds[chunk]);
    }
  }

  if (op == ReduceOp::kMean) {
    const float inv = 1.0f / static_cast<float>(chips);
    for (auto& s : shards) {
      for (float& x : s.f32()) x *= inv;
    }
  }
  return timing;
}

}  // namespace gaudi::scaleout
