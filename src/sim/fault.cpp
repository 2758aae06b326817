#include "sim/fault.hpp"

#include <algorithm>
#include <sstream>

#include "sim/env.hpp"
#include "sim/error.hpp"

namespace gaudi::sim {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kTransientLink: return "transient-link";
    case FaultKind::kLinkDegradation: return "link-degradation";
    case FaultKind::kChipFailure: return "chip-failure";
    case FaultKind::kDmaTimeout: return "dma-timeout";
    case FaultKind::kTpcStraggler: return "tpc-straggler";
    case FaultKind::kHbmPressure: return "hbm-pressure";
    case FaultKind::kSdcBitFlip: return "sdc-bit-flip";
    case FaultKind::kCheckpointCorruption: return "checkpoint-corruption";
  }
  return "unknown";
}

double FaultProfile::rate(FaultKind k) const {
  switch (k) {
    case FaultKind::kTransientLink: return transient_link_rate;
    case FaultKind::kLinkDegradation: return link_degradation_rate;
    case FaultKind::kChipFailure: return chip_failure_rate;
    case FaultKind::kDmaTimeout: return dma_timeout_rate;
    case FaultKind::kTpcStraggler: return tpc_straggler_rate;
    case FaultKind::kHbmPressure: return hbm_pressure_rate;
    case FaultKind::kSdcBitFlip: return sdc_bit_flip_rate;
    case FaultKind::kCheckpointCorruption: return checkpoint_corruption_rate;
  }
  return 0.0;
}

bool FaultProfile::any_rate_positive() const {
  return transient_link_rate > 0.0 || link_degradation_rate > 0.0 ||
         chip_failure_rate > 0.0 || dma_timeout_rate > 0.0 ||
         tpc_straggler_rate > 0.0 || hbm_pressure_rate > 0.0 ||
         sdc_bit_flip_rate > 0.0 || checkpoint_corruption_rate > 0.0;
}

FaultProfile FaultProfile::from_mtbf_steps(double mtbf_steps,
                                           std::uint32_t chips) {
  GAUDI_CHECK(mtbf_steps > 1.0, "MTBF must exceed one step");
  GAUDI_CHECK(chips >= 1, "need at least one chip");
  FaultProfile p;
  // A failure lands somewhere in the box every mtbf steps on average; the
  // per-chip-per-step rate divides across the chips.
  p.chip_failure_rate = 1.0 / (mtbf_steps * static_cast<double>(chips));
  // Soft errors are orders of magnitude more frequent than hard failures.
  p.transient_link_rate = std::min(0.25, 100.0 / (mtbf_steps * chips));
  p.link_degradation_rate = std::min(0.1, 10.0 / (mtbf_steps * chips));
  p.tpc_straggler_rate = std::min(0.1, 10.0 / (mtbf_steps * chips));
  p.dma_timeout_rate = std::min(0.1, 10.0 / (mtbf_steps * chips));
  p.hbm_pressure_rate = std::min(0.05, 2.0 / mtbf_steps);
  return p;
}

FaultProfile FaultProfile::stress() {
  FaultProfile p;
  p.transient_link_rate = 0.2;
  p.link_degradation_rate = 0.1;
  p.chip_failure_rate = 0.02;
  p.dma_timeout_rate = 0.25;
  p.tpc_straggler_rate = 0.25;
  p.hbm_pressure_rate = 0.1;
  return p;
}

std::vector<std::uint32_t> FaultInjector::chips_lost(
    std::uint64_t step, std::uint32_t chips) const {
  std::vector<std::uint32_t> lost;
  for (std::uint32_t c = 0; c < chips; ++c) {
    if (fires(FaultKind::kChipFailure, site(step, c))) lost.push_back(c);
  }
  return lost;
}

double FaultInjector::slowest_straggler(std::uint64_t step, std::uint32_t chips,
                                        const std::vector<std::uint32_t>& lost,
                                        std::uint32_t* count) const {
  double slow = 1.0;
  for (std::uint32_t c = 0; c < chips; ++c) {
    if (std::find(lost.begin(), lost.end(), c) != lost.end()) continue;
    if (fires(FaultKind::kTpcStraggler, site(step, c))) {
      if (count != nullptr) ++*count;
      slow = std::max(slow, profile_.straggler_slowdown);
    }
  }
  return slow;
}

std::vector<FaultEvent> fault_schedule(const FaultInjector& inj,
                                       std::uint64_t steps,
                                       std::uint32_t chips) {
  std::vector<FaultEvent> out;
  if (!inj.enabled()) return out;
  const FaultProfile& p = inj.profile();
  for (std::uint64_t step = 0; step < steps; ++step) {
    for (std::uint32_t c = 0; c < chips; ++c) {
      const std::uint64_t s = FaultInjector::site(step, c);
      if (inj.fires(FaultKind::kChipFailure, s)) {
        out.push_back(FaultEvent{FaultKind::kChipFailure, step, c, 0.0});
      }
      if (inj.fires(FaultKind::kLinkDegradation, s)) {
        out.push_back(FaultEvent{FaultKind::kLinkDegradation, step, c,
                                 p.degraded_bandwidth_factor});
      }
      if (inj.fires(FaultKind::kTransientLink, s)) {
        out.push_back(FaultEvent{FaultKind::kTransientLink, step, c, 0.0});
      }
      if (inj.fires(FaultKind::kTpcStraggler, s)) {
        out.push_back(FaultEvent{FaultKind::kTpcStraggler, step, c,
                                 p.straggler_slowdown});
      }
      if (inj.fires(FaultKind::kSdcBitFlip, s)) {
        out.push_back(FaultEvent{FaultKind::kSdcBitFlip, step, c, 0.0});
      }
    }
    if (inj.fires(FaultKind::kHbmPressure, FaultInjector::site(step, 0))) {
      out.push_back(FaultEvent{FaultKind::kHbmPressure, step, 0,
                               p.hbm_pressure_stall.seconds()});
    }
    // Checkpoint corruption sites are raw step numbers (one snapshot per
    // step at most), matching the site the snapshot writer queries.
    if (inj.fires(FaultKind::kCheckpointCorruption, step)) {
      out.push_back(FaultEvent{FaultKind::kCheckpointCorruption, step, 0, 0.0});
    }
  }
  return out;
}

std::string to_string(const std::vector<FaultEvent>& schedule) {
  std::ostringstream os;
  for (const FaultEvent& e : schedule) {
    os << "step " << e.step << " unit " << e.unit << " "
       << fault_kind_name(e.kind);
    if (e.magnitude != 0.0) os << " x" << e.magnitude;
    os << "\n";
  }
  return os.str();
}

const FaultInjector* fault_injector_from_env() {
  // Built once: the environment is read at first use and the decision is
  // stable for the process lifetime (same contract as GAUDI_VALIDATE).
  static const FaultInjector* injector = []() -> const FaultInjector* {
    if (!env_flag("GAUDI_FAULTS", /*fallback_for_unrecognized=*/false)) {
      return nullptr;
    }
    const std::uint64_t seed = env_u64("GAUDI_FAULT_SEED", 0xFA517ull);
    static FaultInjector inj(seed, FaultProfile::stress());
    return &inj;
  }();
  return injector;
}

}  // namespace gaudi::sim
