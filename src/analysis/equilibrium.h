// Equilibrium calculation (paper figures 9 and 10).
//
// "Equilibrium is achieved when the reported cost from one period results in
// a traffic level on the link that in turn results in the same cost for the
// next period." The model composes the Network Response map (cost -> traffic
// on the average link) with a Metric map (utilization -> cost) and solves
// Cost(t_i) = Cost(t_i+1); like the paper we solve numerically (both maps
// are far too nonlinear for closed form). The offered load L is "the
// percentage the average link would be utilized if min-hop routing were in
// effect".

#pragma once

#include "src/analysis/metric_map.h"
#include "src/analysis/response_map.h"

namespace arpanet::analysis {

struct EquilibriumPoint {
  double cost_hops = 0.0;     ///< equilibrium reported cost, hops
  double utilization = 0.0;   ///< equilibrium link utilization
  bool oversubscribed = false;  ///< utilization pinned at 1.0 (queues grow)
};

class EquilibriumModel {
 public:
  EquilibriumModel(const NetworkResponseMap& response, const MetricMap& metric)
      : response_{&response}, metric_{&metric} {}

  /// Link utilization produced by a reported cost under offered load L:
  /// u(c) = min(1, L * R(c)), with R normalized to 1 at one hop.
  [[nodiscard]] double utilization_at(double cost_hops, double offered_load) const;

  /// Solves the fixed point by bisection (the composed map is monotone
  /// non-increasing in cost, so the crossing is unique).
  [[nodiscard]] EquilibriumPoint equilibrium(double offered_load) const;

 private:
  const NetworkResponseMap* response_;
  const MetricMap* metric_;
};

}  // namespace arpanet::analysis
