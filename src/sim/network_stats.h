// Per-window measurement aggregates for one Network run.

#pragma once

#include "src/stats/histogram.h"
#include "src/stats/summary.h"

namespace arpanet::sim {

struct NetworkStats {
  long packets_generated = 0;
  long packets_delivered = 0;
  long packets_dropped_queue = 0;       ///< tail drops (congestion)
  long packets_dropped_unreachable = 0; ///< no route
  long packets_dropped_loop = 0;        ///< hop budget exceeded (routing loop)
  double bits_delivered = 0.0;
  stats::Summary one_way_delay_ms;
  /// One-way delay distribution (0-5000 ms, 2 ms bins) for percentiles.
  stats::Histogram delay_histogram_ms{0.0, 5000.0, 2500};
  stats::Summary path_hops;
  stats::Summary min_hops;  ///< min-hop length of each delivered packet's pair
  /// Link-state updates originated; a 1969 table exchange is not one.
  long updates_originated = 0;
  /// Routing-message transmissions (overhead): flooded update copies and
  /// distance-vector advertisements alike.
  long update_packets_sent = 0;
};

/// Routing-stability telemetry for the measurement window (reset with the
/// other stats after warm-up). The quantities the paper's stability claims
/// are stated in: how much routes move, how far a cost may jump per update
/// period, whether the flat region really is flat, and how quickly the
/// network settles after the last fault transition.
struct StabilityStats {
  /// Destinations whose first hop changed, summed over every PSN tree
  /// update in the window.
  long route_changes = 0;
  /// Measurement periods in which a link's cost moved while its utilization
  /// sat inside the metric's flat region (paper section 4.2: the cost
  /// should be constant there; movement means decay-in-progress or noise).
  long flat_oscillations = 0;
  /// Largest per-period cost movement observed on any up link.
  double max_movement = 0.0;
  /// Fault actions dispatched inside the window.
  long faults_applied = 0;
  /// Seconds from the window's last fault action to the last first-hop
  /// change anywhere — the reconvergence time after the final heal. Zero
  /// when the window saw no fault.
  double reconverge_sec = 0.0;
};

}  // namespace arpanet::sim
