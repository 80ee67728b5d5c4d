// D-SPF: the 1979 "measured delay" link metric.
//
// The cost is the packet delay averaged over the ten-second measurement
// period, quantized into routing units of 6.4 ms, with a lower bound (the
// *bias*, a function of line speed, which "effectively serves to prevent an
// idle line from reporting a zero delay value") and an upper clip of 254
// units. These constants reproduce the ranges the paper complains about in
// section 3.2: a loaded 9.6 kb/s line can report 254 units ~ 127x the idle
// 56 kb/s bias of 2, and in an all-56 kb/s network a loaded line looks ~20x
// worse than an idle one.
//
// This is the stateless delay-to-cost transform; metrics::LinkMetric runs it
// once per measurement period for a D-SPF link.

#pragma once

#include "src/util/units.h"

namespace arpanet::metrics {

class DspfMetric {
 public:
  /// One D-SPF routing unit of measured delay.
  static constexpr double kUnitMs = 6.4;
  /// Upper clip, in units.
  static constexpr double kMaxUnits = 254.0;

  explicit DspfMetric(util::DataRate rate);

  [[nodiscard]] double bias() const { return bias_; }

  /// Map from an averaged packet delay to the reported cost (units).
  [[nodiscard]] double cost_for_delay(util::SimTime delay) const;

 private:
  double bias_;
};

}  // namespace arpanet::metrics
