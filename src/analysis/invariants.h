// Runtime enforcement of the paper's metric and routing invariants.
//
// ARPALINT-LAYER(sim): the PSN asserts these checks inline during runs, so
// this header sits below sim in the include DAG (the .cpp stays analysis)
//
// The revised metric is specified as a handful of hard properties (sections
// 4.2-4.4): the reported cost of a line always lies between its
// propagation-adjusted minimum and the line-type maximum; consecutive
// reports move at most "a little more than a half-hop" up and one unit less
// than that down; below the utilization threshold the equilibrium cost is
// flat at the minimum; and the SPF machinery everything rides on assumes
// monotone event time and structurally consistent shortest-path trees.
// Related delay-metric work (Jonglez et al., Van Bemten et al.'s Mn
// taxonomy) shows that violations of exactly these properties are what
// silently corrupt routing results — so this module makes every violation
// fatal via ARPA_CHECK instead of a skewed CSV column.
//
// Two usage layers:
//   * free check_* functions — direct enforcement, called by sim::Network on
//     every reported cost and every measurement period, by hot-path
//     ARPA_DCHECKs in core/sim/routing, and by tests;
//   * audit_network — the end-of-run self-audit sim::run_scenario performs
//     on every scenario, walking all PSNs' live reported costs, equilibrium
//     maps and SPF trees.

#pragma once

#include <span>

#include "src/core/hn_metric.h"
#include "src/core/line_params.h"
#include "src/net/topology.h"
#include "src/routing/spf.h"
#include "src/util/units.h"

namespace arpanet::sim {
class Network;
}  // namespace arpanet::sim

namespace arpanet::analysis {

/// Absolute slack for floating-point cost comparisons. Costs are O(10-300)
/// routing units computed with a handful of multiply-adds, so anything
/// beyond this is a real violation, not roundoff.
inline constexpr double kCostSlack = 1e-6;

/// A routing cost in the metric's units. The check API below used to take
/// rows of raw doubles — exactly the adjacent-parameter shape
/// bugprone-easily-swappable-parameters flags, because a caller can pass
/// (min, cost, max) in the wrong order without any diagnostic. Construction
/// is explicit; .value() unwraps at the arithmetic boundary.
class Cost {
 public:
  explicit constexpr Cost(double value) : value_{value} {}
  [[nodiscard]] constexpr double value() const { return value_; }

 private:
  double value_;
};

/// A transmitter utilization: the busy fraction of a measurement period.
/// Distinct from Cost so a busy fraction can never slide into a cost slot
/// of the check API (or vice versa) without an explicit construction.
class Utilization {
 public:
  explicit constexpr Utilization(double value) : value_{value} {}
  [[nodiscard]] constexpr double value() const { return value_; }

 private:
  double value_;
};

/// Fatal unless `cost` lies in [min_cost - slack, max_cost + slack] —
/// the absolute-bound invariant of paper section 4.4. `what` names the
/// checked quantity in the failure message.
void check_cost_in_bounds(Cost cost, Cost min_cost, Cost max_cost,
                          const char* what = "reported cost");

/// Fatal unless the step from `previous` to `next` obeys the per-update
/// movement limits of section 4.3: at most up_limit() up and down_limit()
/// down. `extra_slack` widens both bounds; network-level report-to-report
/// checks pass the significance threshold here, because a cost may drift
/// sub-threshold for several periods before an update carries it.
void check_movement_limited(Cost previous, Cost next,
                            const core::LineTypeParams& params,
                            double extra_slack = 0.0);

/// Fatal unless `u` is finite and non-negative. There is deliberately no
/// upper bound: a transmission that straddles a period boundary is
/// attributed wholly to the period it completes in, so a congested line can
/// legitimately report a busy fraction slightly above 1.
void check_utilization_in_range(Utilization u,
                                const char* what = "utilization");

/// Fatal unless the metric's equilibrium map has the section 4.2 shape:
/// flat at min_cost() for utilizations below flat_threshold, non-decreasing
/// above it, and exactly max_cost() at 100%. Samples the map at `samples`
/// evenly spaced utilizations.
void check_flat_region(const core::HnMetric& metric, int samples = 101);

/// Fatal unless `tree` is structurally valid for `topo` and `costs`:
/// root at distance 0 with no parent; every reached node's parent edge
/// consistent (dist[to] == dist[from] + cost within slack); parent chains
/// acyclic and terminating at the root; first hops matching the parent
/// chain; and every node reachable (all costs here are finite and the
/// topologies are connected by construction).
void check_spf_tree(const net::Topology& topo, const routing::SpfTree& tree,
                    std::span<const double> costs);

/// What audit_network covered, so callers can assert the audit actually
/// inspected something (a zero count in a test means the hook is dead).
struct AuditStats {
  long costs_checked = 0;        ///< live reported costs, bounds-checked
  long trees_checked = 0;        ///< per-PSN SPF trees validated
  long maps_checked = 0;         ///< per-link equilibrium maps validated
  long routes_checked = 0;       ///< node pairs route-audited (both kinds)

  AuditStats& operator+=(const AuditStats& o) {
    costs_checked += o.costs_checked;
    trees_checked += o.trees_checked;
    maps_checked += o.maps_checked;
    routes_checked += o.routes_checked;
    return *this;
  }
};

/// Partition-aware forwarding audit (SPF mode). Computes the connected
/// components of the *administratively up* trunks, then checks every
/// ordered node pair: same-component pairs must have a working forwarding
/// chain (each hop's link admin-up, no loop, terminating at the
/// destination); cross-component pairs must not — their chains are allowed
/// only if they traverse a down link (a down link advertises the finite
/// Psn::kDownLinkCost, so SPF trees stay total and "routes" through the
/// cut exist structurally but would black-hole).
///
/// Replaces the old audit assumption that every pair is mutually reachable,
/// which false-positived the moment a fault plan legitimately partitioned
/// the network. Only meaningful once flooding has quiesced
/// (Network::updates_in_flight() == 0) — callers must gate on that, as the
/// per-PSN maps may legitimately disagree mid-flood. Returns counts of the
/// pairs checked; violations abort via ARPA_CHECK.
AuditStats check_reachable_within_component(const sim::Network& net);

/// Full-network self-audit of the final state; any violated invariant
/// aborts via ARPA_CHECK. Checks every live reported cost against the
/// bounds the network holds for its link (Network::link_bounds) and, in SPF
/// mode, that every PSN's tree is valid against its own cost map. Under
/// HN-SPF semantics it also checks each link's equilibrium map for the
/// flat region. Movement limits are not replayed here: sim::Network checks
/// them on every report and every period as the run goes.
AuditStats audit_network(const sim::Network& net);

}  // namespace arpanet::analysis
