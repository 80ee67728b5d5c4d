#include "src/exp/experiment.h"

#include <string>
#include <utility>

#include "src/net/builders/registry.h"

namespace arpanet::exp {

Experiment::Experiment(net::Topology topo, std::string name)
    : topo_{std::move(name), std::move(topo)} {}

Experiment Experiment::arpanet87() {
  return Experiment{net::build_topology("arpanet87"), "arpanet87"};
}

Experiment Experiment::two_region(int per_region) {
  return Experiment{net::build_topology("two-region:per_region=" +
                                        std::to_string(per_region)),
                    "two-region"};
}

sim::ScenarioResult Experiment::run(const sim::ScenarioConfig& cfg) const {
  return sim::run_scenario(topo_.topo, cfg, /*label=*/"");
}

SweepResult Experiment::sweep(const SweepSpec& spec,
                              const SweepOptions& opts) const {
  return SweepRunner{opts}.run(spec, topo_);
}

traffic::TrafficMatrix Experiment::matrix(const sim::ScenarioConfig& cfg) const {
  return sim::scenario_matrix(topo_.topo, cfg);
}

}  // namespace arpanet::exp
