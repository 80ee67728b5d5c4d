// Experiment: the single front door for whole-network experiments.
//
// Wraps one (named) topology and runs ScenarioConfigs against it — one at a
// time or as a parallel sweep:
//
//   exp::Experiment e = exp::Experiment::arpanet87();
//
//   // single run
//   const auto r = e.run(sim::ScenarioConfig{}
//                            .with_metric(metrics::MetricKind::kDspf)
//                            .with_load_bps(366e3));
//
//   // parallel sweep: metric x offered load, every core busy
//   const auto sweep = e.sweep(exp::SweepSpec{}
//                                  .over_metrics({MetricKind::kDspf,
//                                                 MetricKind::kHnSpf})
//                                  .over_load_range_bps(250e3, 550e3, 75e3));
//   sweep.write_csv(std::cout);
//
// Both paths run the same scenario primitive, so a sweep's cell (i) and a
// single run with the cell's config produce identical results.

#pragma once

#include <string>

#include "src/exp/sweep.h"
#include "src/exp/sweep_runner.h"

namespace arpanet::exp {

class Experiment {
 public:
  /// Takes ownership of the topology; `name` labels it in sweep output.
  explicit Experiment(net::Topology topo, std::string name = "net");

  /// Conveniences for the two reference networks.
  [[nodiscard]] static Experiment arpanet87();
  [[nodiscard]] static Experiment two_region(int per_region = 6);

  [[nodiscard]] const net::Topology& topology() const { return topo_.topo; }
  [[nodiscard]] const std::string& name() const { return topo_.name; }

  /// Runs one scenario (validates the config, labels the result with
  /// cfg.effective_label()).
  [[nodiscard]] sim::ScenarioResult run(const sim::ScenarioConfig& cfg) const;

  /// Expands the spec's axes and executes every cell, in parallel per
  /// `opts.threads`. The spec's empty topology axis means "this
  /// experiment's topology".
  [[nodiscard]] SweepResult sweep(const SweepSpec& spec,
                                  const SweepOptions& opts = {}) const;

  /// The traffic matrix a config would run (for analysis-layer studies
  /// that need the matrix without a simulation).
  [[nodiscard]] traffic::TrafficMatrix matrix(
      const sim::ScenarioConfig& cfg) const;

 private:
  NamedTopology topo_;
};

}  // namespace arpanet::exp
