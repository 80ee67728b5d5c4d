#include "src/metrics/make_metric.h"

#include <stdexcept>

#include "src/metrics/dspf_metric.h"
#include "src/metrics/hnspf_metric.h"
#include "src/metrics/minhop_metric.h"

namespace arpanet::metrics {

std::unique_ptr<LinkMetric> make_metric(MetricKind kind, const net::Link& link,
                                        const core::LineParamsTable& params) {
  switch (kind) {
    case MetricKind::kMinHop:
      return std::make_unique<MinHopMetric>();
    case MetricKind::kDspf:
      return std::make_unique<DspfMetric>(link.rate, link.prop_delay);
    case MetricKind::kHnSpf:
      return std::make_unique<HnSpfMetric>(params.for_type(link.type), link.rate,
                                           link.prop_delay);
  }
  throw std::invalid_argument("unknown MetricKind");
}

double initial_cost(MetricKind kind, const net::Link& link,
                    const core::LineParamsTable& params) {
  switch (kind) {
    case MetricKind::kMinHop:
      return MinHopMetric{}.initial_cost();
    case MetricKind::kDspf:
      return DspfMetric{link.rate, link.prop_delay}.bias();
    case MetricKind::kHnSpf:
      return params.for_type(link.type).max_cost;
  }
  throw std::invalid_argument("unknown MetricKind");
}

CostBounds cost_bounds(MetricKind kind, const net::Link& link,
                       const core::LineParamsTable& params) {
  switch (kind) {
    case MetricKind::kMinHop: {
      const double hop = MinHopMetric{}.initial_cost();
      return CostBounds{hop, hop};
    }
    case MetricKind::kDspf:
      return CostBounds{DspfMetric{link.rate, link.prop_delay}.bias(),
                        DspfMetric::kMaxUnits};
    case MetricKind::kHnSpf: {
      const core::LineTypeParams& p = params.for_type(link.type);
      return CostBounds{p.min_cost(link.prop_delay), p.max_cost};
    }
  }
  throw std::invalid_argument("unknown MetricKind");
}

}  // namespace arpanet::metrics
