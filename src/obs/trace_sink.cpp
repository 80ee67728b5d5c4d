#include "src/obs/trace_sink.h"

namespace arpanet::obs {

void RecordingTraceSink::on_cost_reported(net::LinkId link, util::SimTime at,
                                          double cost) {
  costs_.at(link).emplace_back(at, cost);
}

void RecordingTraceSink::on_utilization(net::LinkId link, util::SimTime at,
                                        double busy_fraction) {
  utilizations_.at(link).emplace_back(at, busy_fraction);
}

std::size_t RecordingTraceSink::total_samples() const {
  std::size_t total = 0;
  for (const auto& s : costs_) total += s.size();
  for (const auto& s : utilizations_) total += s.size();
  return total;
}

}  // namespace arpanet::obs
