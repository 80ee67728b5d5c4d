// Traffic matrices.
//
// An N x N matrix of offered load (bits/second) between PSN pairs. The
// paper's section 5 analysis runs against "the July 1987 ARPANET topology
// and peak hour traffic matrix"; builders below synthesize matrices with the
// properties that analysis depends on (many small node-to-node flows — the
// regime the paper says single-path routing handles well, section 4.5).

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/net/topology.h"
#include "src/util/rng.h"

namespace arpanet::traffic {

class TrafficMatrix {
 public:
  explicit TrafficMatrix(std::size_t nodes);

  [[nodiscard]] std::size_t nodes() const { return n_; }

  [[nodiscard]] double at(net::NodeId src, net::NodeId dst) const {
    return rates_[index(src, dst)];
  }
  /// Row `src`: its offered load to every destination, indexed by NodeId.
  [[nodiscard]] std::span<const double> row(net::NodeId src) const {
    return std::span<const double>{rates_}.subspan(index(src, 0), n_);
  }
  void set(net::NodeId src, net::NodeId dst, double bps);
  void add(net::NodeId src, net::NodeId dst, double bps);

  /// Sum of all entries (bits/second offered network-wide).
  [[nodiscard]] double total_bps() const;

  /// Multiplies every entry; used for offered-load sweeps.
  void scale(double factor);
  /// Rescales so total_bps() == total.
  void normalize_total(double total_bps);

  // ---- builders ----

  /// Equal rate between every ordered pair.
  [[nodiscard]] static TrafficMatrix uniform(std::size_t nodes, double total_bps);

  /// Gravity model: rate(s,d) proportional to w[s]*w[d].
  [[nodiscard]] static TrafficMatrix gravity(const std::vector<double>& weights,
                                             double total_bps);

  /// Synthetic "peak hour" matrix: log-normal-ish node weights drawn from
  /// rng feed a gravity model, giving a few busy hosts and many small flows.
  [[nodiscard]] static TrafficMatrix peak_hour(std::size_t nodes, double total_bps,
                                               util::Rng rng);

 private:
  [[nodiscard]] std::size_t index(net::NodeId s, net::NodeId d) const {
    return static_cast<std::size_t>(s) * n_ + d;
  }
  std::size_t n_;
  std::vector<double> rates_;
};

}  // namespace arpanet::traffic
