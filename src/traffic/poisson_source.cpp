#include "src/traffic/poisson_source.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace arpanet::traffic {

PoissonProcess::PoissonProcess(double rate_per_sec, util::Rng rng)
    : rate_{rate_per_sec}, rng_{rng} {
  if (!(rate_per_sec > 0.0)) throw std::invalid_argument("rate must be positive");
  if (rate_per_sec < kMinRatePerSec) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "Poisson rate %g packets/s is below the minimum %g "
                  "packets/s: its longest gap would overflow the simulated "
                  "clock",
                  rate_per_sec, kMinRatePerSec);
    throw std::invalid_argument(msg);
  }
}

util::SimTime PoissonProcess::next_gap() {
  return util::SimTime::from_sec(rng_.exponential(1.0 / rate_));
}

PacketSizer::PacketSizer(double mean_bits, double floor_bits)
    : mean_{mean_bits}, floor_{floor_bits} {
  if (!(mean_bits > floor_bits) || floor_bits < 0.0) {
    throw std::invalid_argument("packet size mean must exceed floor");
  }
}

double PacketSizer::sample(util::Rng& rng) const {
  return floor_ + rng.exponential(mean_ - floor_);
}

AliasTable::Range AliasTable::add(std::span<const double> weights) {
  double sum = 0.0;
  std::vector<std::uint32_t> positive;
  for (std::uint32_t i = 0; i < weights.size(); ++i) {
    if (!(weights[i] >= 0.0) || !std::isfinite(weights[i])) {
      throw std::invalid_argument("alias weights must be finite and >= 0");
    }
    if (weights[i] > 0.0) {
      sum += weights[i];
      positive.push_back(i);
    }
  }
  if (positive.empty()) {
    throw std::invalid_argument("alias table needs a positive weight");
  }

  // Vose: scale each column's mass to mean 1, then pair an underfull
  // column with an overfull one until every column holds exactly 1.
  const Range table{static_cast<std::uint32_t>(columns_.size()),
                    static_cast<std::uint32_t>(positive.size())};
  std::vector<double> mass(positive.size());
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  for (std::uint32_t k = 0; k < positive.size(); ++k) {
    mass[k] = weights[positive[k]] * static_cast<double>(positive.size()) / sum;
    (mass[k] < 1.0 ? small : large).push_back(k);
    columns_.push_back({1.0, positive[k], positive[k]});
  }
  Column* col = columns_.data() + table.first;
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    const std::uint32_t l = large.back();
    small.pop_back();
    col[s].keep = mass[s];
    col[s].alias = positive[l];
    mass[l] = (mass[l] + mass[s]) - 1.0;
    if (mass[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Whatever is left holds mass 1 up to rounding and keeps its own outcome.
  return table;
}

double AliasTable::probability(Range table, std::uint32_t index) const {
  double p = 0.0;
  for (std::uint32_t k = 0; k < table.count; ++k) {
    const Column& c = columns_[table.first + k];
    if (c.outcome == index) p += c.keep;
    if (c.alias == index) p += 1.0 - c.keep;
  }
  return p / table.count;
}

}  // namespace arpanet::traffic
