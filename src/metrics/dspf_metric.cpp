#include "src/metrics/dspf_metric.h"

#include <algorithm>
#include <cmath>

#include "src/core/mm1.h"

namespace arpanet::metrics {

DspfMetric::DspfMetric(util::DataRate rate) {
  // The bias is "a function of line speed" only: one average transmission
  // time plus nominal PSN processing (~2 ms), in units, at least 1. For a
  // 56 kb/s trunk: (10.7 ms + 2 ms) / 6.4 ms -> 2 units, the value the
  // paper quotes; for 9.6 kb/s: (62.5 + 2) / 6.4 -> 10 units, making a
  // saturated 9.6 line (254) ~127x an idle 56 line — the section 3.2 range.
  const util::SimTime idle =
      core::mean_service_time(rate) + util::SimTime::from_ms(2.0);
  bias_ = std::clamp(std::round(idle.ms() / kUnitMs), 1.0, kMaxUnits);
}

double DspfMetric::cost_for_delay(util::SimTime delay) const {
  const double units = std::round(delay.ms() / kUnitMs);
  return std::clamp(units, bias_, kMaxUnits);
}

}  // namespace arpanet::metrics
