#include "src/metrics/link_metric.h"

#include <stdexcept>

#include "src/core/mm1.h"

namespace arpanet::metrics {

namespace {

/// "Effectively infinite": no min-hop cost change is ever significant.
constexpr double kMinHopThreshold = 1e30;

}  // namespace

LinkMetric::LinkMetric(MetricKind kind, const net::Link& link,
                       const core::LineParamsTable& params)
    : rate_{link.rate}, prop_delay_{link.prop_delay} {
  switch (kind) {
    case MetricKind::kMinHop:
      return;
    case MetricKind::kDspf:
      state_.emplace<DspfMetric>(link.rate);
      return;
    case MetricKind::kHnSpf:
      state_.emplace<core::HnMetric>(params.for_type(link.type), link.rate,
                                     link.prop_delay);
      return;
  }
  throw std::invalid_argument("unknown MetricKind");
}

double LinkMetric::on_period(const PeriodMeasurement& m) {
  switch (kind()) {
    case MetricKind::kMinHop:
      return kHopCost;
    case MetricKind::kDspf:
      return std::get<DspfMetric>(state_).cost_for_delay(m.avg_delay);
    case MetricKind::kHnSpf:
      return std::get<core::HnMetric>(state_).update_from_delay(m.avg_delay);
  }
  return kHopCost;
}

double LinkMetric::initial_cost() const {
  switch (kind()) {
    case MetricKind::kMinHop:
      return kHopCost;
    case MetricKind::kDspf:
      return std::get<DspfMetric>(state_).bias();
    case MetricKind::kHnSpf:
      return std::get<core::HnMetric>(state_).max_cost();
  }
  return kHopCost;
}

void LinkMetric::on_link_up() {
  if (kind() == MetricKind::kHnSpf) {
    std::get<core::HnMetric>(state_).on_link_up();
  }
}

CostBounds LinkMetric::bounds() const {
  switch (kind()) {
    case MetricKind::kMinHop:
      return CostBounds{kHopCost, kHopCost};
    case MetricKind::kDspf:
      return CostBounds{std::get<DspfMetric>(state_).bias(),
                        DspfMetric::kMaxUnits};
    case MetricKind::kHnSpf: {
      const core::HnMetric& hnm = std::get<core::HnMetric>(state_);
      return CostBounds{hnm.min_cost(), hnm.max_cost()};
    }
  }
  return CostBounds{kHopCost, kHopCost};
}

SignificanceFilter::Config LinkMetric::significance(
    double threshold_override) const {
  if (threshold_override >= 0.0) {
    return SignificanceFilter::fixed_config(threshold_override);
  }
  switch (kind()) {
    case MetricKind::kMinHop:
      return SignificanceFilter::fixed_config(kMinHopThreshold);
    case MetricKind::kDspf:
      return SignificanceFilter::dspf_config();
    case MetricKind::kHnSpf:
      return SignificanceFilter::fixed_config(
          std::get<core::HnMetric>(state_).change_threshold());
  }
  return SignificanceFilter::fixed_config(kMinHopThreshold);
}

double LinkMetric::equilibrium_cost(double utilization) const {
  switch (kind()) {
    case MetricKind::kMinHop:
      return kHopCost;
    case MetricKind::kDspf:
      return std::get<DspfMetric>(state_).cost_for_delay(
          core::delay_from_utilization(utilization, rate_, prop_delay_));
    case MetricKind::kHnSpf:
      return std::get<core::HnMetric>(state_).equilibrium_cost(utilization);
  }
  return kHopCost;
}

}  // namespace arpanet::metrics
