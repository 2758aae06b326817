#include "tpc/cluster.hpp"

#include <algorithm>
#include <sstream>

#include "sim/error.hpp"
#include "sim/thread_pool.hpp"

namespace gaudi::tpc {

namespace {

struct CoreOutcome {
  SlotCycles slots{};
  sim::Cycles elapsed = 0;
  std::uint64_t global_bytes = 0;
};

}  // namespace

RunResult TpcCluster::run(const Kernel& kernel, ExecMode mode) const {
  const IndexSpace space = kernel.index_space();
  const std::uint32_t cores = cfg_.num_cores;

  const std::size_t lm_vectors = kernel.local_memory_vectors();
  const std::size_t lm_bytes = lm_vectors * kLanes * sizeof(float);
  if (lm_bytes > cfg_.vector_local_bytes) {
    std::ostringstream os;
    os << "kernel '" << kernel.name() << "' requires " << lm_bytes
       << " bytes of vector local memory; bank is " << cfg_.vector_local_bytes;
    throw sim::ResourceExhausted(os.str());
  }

  std::vector<CoreOutcome> outcomes(cores);

  auto run_core_functional = [&](std::uint32_t core) {
    DataContext ctx(cfg_, core, lm_vectors, rng_.stream(core));
    const std::int64_t count = space.members_on_core(core, cores);
    for (std::int64_t k = 0; k < count; ++k) {
      const std::int64_t linear = space.core_member(core, k, cores);
      kernel.execute(ctx, space.member(linear));
      // Per-member loop bookkeeping (index-space iteration) on the SPU.
      ctx.s_bookkeeping();
    }
    outcomes[core].slots = ctx.cycles();
    outcomes[core].elapsed = ctx.cycles().elapsed();
    outcomes[core].global_bytes = ctx.global_bytes();
  };

  auto run_core_timing = [&](std::uint32_t core) {
    const std::int64_t count = space.members_on_core(core, cores);
    if (count == 0) {
      return;
    }
    // Sample first / middle / last member on this core; average and scale.
    std::int64_t sample_ks[kTimingSamples] = {0, count / 2, count - 1};
    std::int64_t samples[kTimingSamples];
    std::int64_t n_samples = 0;
    for (std::int64_t k : sample_ks) {
      bool dup = false;
      for (std::int64_t i = 0; i < n_samples; ++i) dup = dup || samples[i] == k;
      if (!dup) samples[n_samples++] = k;
    }
    CostContext ctx(cfg_, core, lm_vectors, rng_.stream(core));
    SlotCycles per_member_sum{};
    std::uint64_t per_member_bytes = 0;
    for (std::int64_t i = 0; i < n_samples; ++i) {
      ctx.reset_cycles();
      kernel.execute(ctx, space.member(space.core_member(core, samples[i], cores)));
      ctx.s_bookkeeping();
      per_member_sum += ctx.cycles();
      per_member_bytes += ctx.global_bytes();
    }
    // Extrapolate: average sampled member, scaled to the member count.
    auto scale = [&](std::uint64_t v) {
      return static_cast<std::uint64_t>(
          static_cast<double>(v) / static_cast<double>(n_samples) *
              static_cast<double>(count) +
          0.5);
    };
    SlotCycles total;
    total.load = scale(per_member_sum.load);
    total.spu = scale(per_member_sum.spu);
    total.vpu = scale(per_member_sum.vpu);
    total.store = scale(per_member_sum.store);
    outcomes[core].slots = total;
    outcomes[core].elapsed = total.elapsed();
    outcomes[core].global_bytes = scale(per_member_bytes);
  };

  if (mode == ExecMode::kFunctional) {
    if (space.size() >= 64) {
      sim::ThreadPool::global().parallel_for(
          cores, [&](std::size_t c) { run_core_functional(static_cast<std::uint32_t>(c)); });
    } else {
      for (std::uint32_t c = 0; c < cores; ++c) run_core_functional(c);
    }
  } else {
    for (std::uint32_t c = 0; c < cores; ++c) run_core_timing(c);
  }

  RunResult r;
  r.members = static_cast<std::uint64_t>(space.size());
  r.flops = kernel.flop_count();
  r.extrapolated = (mode == ExecMode::kTiming);
  sim::Cycles slowest = 0;
  for (const auto& o : outcomes) {
    slowest = std::max(slowest, o.elapsed);
    r.slot_totals += o.slots;
    r.global_bytes += o.global_bytes;
  }
  r.cycles = slowest + cfg_.launch_overhead_cycles;
  r.duration = cfg_.clock().to_time(r.cycles);
  // The cores' aggregate global-access rate can outrun HBM; streaming
  // kernels are then bandwidth-bound.
  const sim::SimTime memory_time = sim::SimTime::from_seconds(
      static_cast<double>(r.global_bytes) / hbm_bandwidth_);
  if (memory_time > r.duration) {
    r.duration = memory_time;
    r.memory_bound = true;
  }
  return r;
}

}  // namespace gaudi::tpc
