// Per-link delay measurement.
//
// "For every packet the PSN receives and forwards, it measures queueing and
// processing delay to which it adds tabled values of transmission and
// propagation delay. For each of its outgoing links, it averages this total
// delay over a ten-second period" (paper section 2.2). This accumulator is
// that mechanism for one simplex link; the PSN calls record_packet() as each
// forwarded packet finishes transmission and end_period() once per
// measurement period.

#pragma once

#include "src/metrics/link_metric.h"
#include "src/util/units.h"

namespace arpanet::metrics {

class DelayMeasurement {
 public:
  /// `rate` and `prop_delay` are the link's tabled values; the idle-period
  /// delay floor is one average-packet transmission plus propagation.
  DelayMeasurement(util::DataRate rate, util::SimTime prop_delay);

  /// Records one forwarded packet. `queue_and_processing` is the time from
  /// arrival at (or origination in) the PSN until transmission began;
  /// `transmission` is this packet's serialization time.
  void record_packet(util::SimTime queue_and_processing, util::SimTime transmission);

  /// Closes the current period and resets the accumulators.
  /// `period_length` is used for the busy fraction.
  [[nodiscard]] PeriodMeasurement end_period(util::SimTime period_length);

 private:
  util::SimTime idle_floor_;
  util::SimTime prop_delay_;
  util::SimTime delay_sum_ = util::SimTime::zero();
  util::SimTime busy_sum_ = util::SimTime::zero();
  long packets_ = 0;
};

}  // namespace arpanet::metrics
