// Link metric: the function from a link's per-period measurement to the
// cost it reports.
//
// The routing revision this library reproduces changed *only* this
// function; everything else (SPF, flooding, forwarding) is shared. The
// simulator models exactly the three metrics the paper compares, and
// MetricKind names them: min-hop (the static baseline), D-SPF (the 1979
// delay metric, DspfMetric) and HN-SPF (the July 1987 revision,
// core::HnMetric). A LinkMetric is one simplex link's instance: a plain,
// copyable value holding its kind's state, answering each behaviour with
// one switch on the kind. The simulator keeps one per link and calls
// on_period() every measurement period (10 s in the ARPANET). A new metric
// is a MetricKind enumerator, a state alternative and one case per switch.

#pragma once

#include <variant>

#include "src/core/hn_metric.h"
#include "src/core/line_params.h"
#include "src/metrics/dspf_metric.h"
#include "src/metrics/significance.h"
#include "src/net/topology.h"
#include "src/util/units.h"

namespace arpanet::metrics {

/// What the PSN measured on one outgoing link over one measurement period.
struct PeriodMeasurement {
  /// Average per-packet delay: measured queueing+processing plus tabled
  /// transmission and propagation (paper section 2.2). For an idle period
  /// this is the idle floor (transmission of an average packet + propagation).
  util::SimTime avg_delay;
  /// Fraction of the period the transmitter was busy. Kept for ablation
  /// studies; the ARPANET metrics derive utilization from delay instead.
  double busy_fraction = 0.0;
  /// Packets forwarded during the period.
  long packets = 0;
};

/// Which metric family a simulation runs. Order matches the paper's
/// narrative: the min-hop strawman, the 1979 delay metric, the revision.
enum class MetricKind { kMinHop, kDspf, kHnSpf };

[[nodiscard]] constexpr const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kMinHop: return "min-hop";
    case MetricKind::kDspf: return "D-SPF";
    case MetricKind::kHnSpf: return "HN-SPF";
  }
  return "?";
}

/// The absolute cost range a link's metric promises. The invariant layer
/// (sim::Network per report, analysis::audit_network at end of run) enforces
/// it on every cost the metric reports.
struct CostBounds {
  double min_cost = 0.0;
  double max_cost = 0.0;
};

class LinkMetric {
 public:
  /// Min-hop's cost: every link always costs one hop, whatever its load.
  static constexpr double kHopCost = 1.0;

  /// `kind`'s metric for `link`. HN-SPF takes its constants from `link`'s
  /// line type in `params` and throws std::invalid_argument if they are
  /// invalid for the link (see core::HnMetric).
  LinkMetric(MetricKind kind, const net::Link& link,
             const core::LineParamsTable& params);

  [[nodiscard]] MetricKind kind() const {
    return static_cast<MetricKind>(state_.index());
  }

  /// Per-period transform; returns the candidate cost to report.
  double on_period(const PeriodMeasurement& m);

  /// Cost to advertise before any measurement exists (link just came up):
  /// HN-SPF's maximum (new links ease in, section 5.4), D-SPF's bias,
  /// min-hop's hop.
  [[nodiscard]] double initial_cost() const;

  /// Link went down and came back up; reset history accordingly.
  void on_link_up();

  /// The range every reported cost stays in: HN-SPF's propagation-adjusted
  /// [min, max], D-SPF's [bias, 254 units], min-hop's constant.
  [[nodiscard]] CostBounds bounds() const;

  /// The update-generation rule. A `threshold_override` >= 0 (an ablation)
  /// fixes the threshold at that value; otherwise HN-SPF's threshold is
  /// fixed at "a little less than a half-hop", D-SPF's decays from 64 units
  /// and min-hop's never trips (its cost never changes, so only the 50 s
  /// reliability updates flow).
  [[nodiscard]] SignificanceFilter::Config significance(
      double threshold_override) const;

  /// The equilibrium metric map: the cost the metric settles on if the
  /// link's utilization is held at `utilization`, with no movement history
  /// (the static view of figures 4, 5 and 9).
  [[nodiscard]] double equilibrium_cost(double utilization) const;

 private:
  /// Alternatives in MetricKind order: min-hop holds nothing, D-SPF its
  /// rate-only bias, HN-SPF the HNM's averaging and movement state.
  std::variant<std::monostate, DspfMetric, core::HnMetric> state_;
  /// The link's rate and propagation delay: D-SPF's equilibrium view maps a
  /// utilization back to the delay it would measure.
  util::DataRate rate_;
  util::SimTime prop_delay_;
};

}  // namespace arpanet::metrics
