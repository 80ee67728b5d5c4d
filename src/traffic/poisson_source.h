// Poisson packet arrival sampling.
//
// Each source node with outgoing traffic is one Poisson arrival process at
// its row's summed rate; each packet's destination is drawn from an alias
// table weighted by the row's entries. By the superposition property this
// is the same arrival law as one independent process per nonzero matrix
// entry. Packet sizes are shifted-exponential. Together they match the
// M/M/1 assumptions of the HNM's delay-to-utilization conversion (mean 600
// bits network-wide).

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/util/rng.h"
#include "src/util/units.h"

namespace arpanet::traffic {

/// Interarrival-gap sampler for a Poisson process.
class PoissonProcess {
 public:
  /// The slowest rate whose longest possible gap (Rng::exponential's cap)
  /// still converts to a SimTime: about 4e-12 packets/s.
  static constexpr double kMinRatePerSec =
      util::Rng::kMaxExponentialMeans / util::SimTime::kMaxSec;

  /// Throws std::invalid_argument unless rate_per_sec >= kMinRatePerSec.
  PoissonProcess(double rate_per_sec, util::Rng rng);

  /// Next exponential interarrival gap.
  [[nodiscard]] util::SimTime next_gap();

 private:
  double rate_;
  util::Rng rng_;
};

/// Packet sizes: floor + exponential tail, with the configured overall mean.
/// The floor models minimum header size; with the 600-bit default mean and
/// 32-bit floor the tail mean is 568 bits.
class PacketSizer {
 public:
  explicit PacketSizer(double mean_bits, double floor_bits = 32.0);

  [[nodiscard]] double sample(util::Rng& rng) const;

 private:
  double mean_;
  double floor_;
};

/// Walker/Vose alias tables: O(1) draws from fixed discrete distributions.
/// Many tables share one flat column array; each add() appends a table and
/// returns the Range that names it.
class AliasTable {
 public:
  /// One table: `count` consecutive columns from `first`.
  struct Range {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  /// Appends a table over `weights` (non-negative, at least one positive).
  /// A draw returns index i with probability weights[i] / sum; zero weights
  /// get no column and are never drawn.
  Range add(std::span<const double> weights);

  /// One uniform draw picks the column (integer part) and tosses its coin
  /// (fractional part).
  [[nodiscard]] std::uint32_t sample(Range table, util::Rng& rng) const {
    const double u = rng.uniform() * table.count;
    const auto i = std::min(static_cast<std::uint32_t>(u), table.count - 1);
    const Column& c = columns_[table.first + i];
    return u - i < c.keep ? c.outcome : c.alias;
  }

  /// The probability a draw from `table` returns `index`, read off its
  /// columns. A test hook: the simulator never calls it; the exactness
  /// tests compare it with weights[i] / sum, which sampling cannot do to
  /// 1e-12.
  [[nodiscard]] double probability(Range table, std::uint32_t index) const;

  void reserve(std::size_t columns) { columns_.reserve(columns); }

 private:
  struct Column {
    double keep;            ///< chance the coin keeps `outcome`
    std::uint32_t outcome;  ///< weight index this column stands for
    std::uint32_t alias;    ///< weight index taken when the coin does not
  };
  std::vector<Column> columns_;
};

}  // namespace arpanet::traffic
