#include "sim/time.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/error.hpp"

namespace gaudi::sim {

std::string to_string(SimTime t) {
  const double ps = static_cast<double>(t.ps());
  char buf[64];
  const double abs_ps = std::abs(ps);
  if (abs_ps >= 1e12) {
    std::snprintf(buf, sizeof(buf), "%.3f s", ps * 1e-12);
  } else if (abs_ps >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", ps * 1e-9);
  } else if (abs_ps >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.3f us", ps * 1e-6);
  } else if (abs_ps >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.3f ns", ps * 1e-3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lld ps", static_cast<long long>(t.ps()));
  }
  return buf;
}

SimTime backoff_delay(SimTime base, SimTime cap, std::int32_t attempt) {
  GAUDI_ASSERT(attempt >= 1, "backoff attempts count from 1");
  const std::int32_t shift = std::min<std::int32_t>(attempt - 1, 62);
  // base * 2^shift > cap  <=>  base > cap / 2^shift: compare before
  // multiplying so that a huge base saturates instead of overflowing.
  if (base.ps() > (cap.ps() >> shift)) return cap;
  return base * (std::int64_t{1} << shift);
}

}  // namespace gaudi::sim
