// Superposition equivalence: one Poisson source per node, each packet's
// destination drawn in proportion to the row's rates, against the model it
// replaced (one independent Poisson source per nonzero matrix entry).
//
// A superposition of independent Poisson processes is Poisson with the
// summed rate, and thinning it by independent destination draws gives back
// independent per-pair processes, so the two models share one arrival law.
// These tests check that the simulator keeps it: per-pair and per-node
// offered load match λ·T under a chi-square bound, and the Table-1
// indicators' 20-seed means lie within three standard errors of the means
// the per-pair model produced on seeds 1..120 (committed constants below).

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/net/builders/registry.h"
#include "src/sim/network.h"
#include "src/traffic/traffic_matrix.h"

namespace arpanet::sim {
namespace {

using util::SimTime;

constexpr int kSeeds = 20;
/// Seeds behind the per-pair reference moments (1..120, a superset of the
/// tests' 1..20): a tight reference leaves the superposed model's own
/// 20-seed spread as nearly all of the comparison's standard error.
constexpr int kReferenceSeeds = 120;
/// Fixed across seeds so only the sources' streams vary between runs.
constexpr std::uint64_t kMatrixSeed = 1987;

traffic::TrafficMatrix peak_hour(const net::Topology& topo, double bps) {
  return traffic::TrafficMatrix::peak_hour(topo.node_count(), bps,
                                           util::Rng{kMatrixSeed});
}

/// Running sum of (N - mu)^2 / mu over Poisson counts N with means mu.
/// Each term has mean 1 and variance 2 + 1/mu, so the total's mean and
/// standard deviation are exact for any mu, small ones included.
struct ChiSquare {
  double statistic = 0.0;
  double variance = 0.0;
  long terms = 0;

  void add(double observed, double expected) {
    statistic += (observed - expected) * (observed - expected) / expected;
    variance += 2.0 + 1.0 / expected;
    ++terms;
  }
  /// Distance from the mean in standard deviations.
  [[nodiscard]] double z() const {
    return (statistic - static_cast<double>(terms)) / std::sqrt(variance);
  }
};

// Offered load: from t = 0, sources run for `horizon`, then stop and the
// network drains. With no drop every generated packet is delivered, so the
// delivery hook sees each pair's whole arrival count, Poisson(λ_sd·T).
TEST(SuperpositionTest, PerPairAndPerNodeOfferedLoadMatchTheMatrix) {
  const net::Topology net87 = net::build_topology("arpanet87");
  const net::Topology& topo = net87;
  const std::size_t n = topo.node_count();
  const traffic::TrafficMatrix matrix = peak_hour(topo, 150e3);
  const SimTime horizon = SimTime::from_sec(100);

  ChiSquare pairs;
  ChiSquare nodes;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    NetworkConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(seed);
    Network net{topo, cfg};
    std::vector<long> delivered(n * n, 0);
    net.set_delivery_hook([&delivered, n](const Packet& pkt) {
      ++delivered[static_cast<std::size_t>(pkt.src) * n + pkt.dst];
    });
    net.add_traffic(matrix);
    net.run_for(horizon);
    net.stop_traffic();
    net.run_for(SimTime::from_sec(30));

    const NetworkStats& s = net.stats();
    ASSERT_EQ(s.packets_dropped_queue + s.packets_dropped_unreachable +
                  s.packets_dropped_loop,
              0)
        << "seed " << seed << ": light load must not drop";
    ASSERT_EQ(s.packets_delivered, s.packets_generated) << "seed " << seed;

    for (net::NodeId src = 0; src < n; ++src) {
      double node_expected = 0.0;
      long node_observed = 0;
      for (net::NodeId dst = 0; dst < n; ++dst) {
        const long observed =
            delivered[static_cast<std::size_t>(src) * n + dst];
        const double expected =
            matrix.at(src, dst) / util::kAveragePacketBits * horizon.sec();
        if (expected <= 0.0) {
          EXPECT_EQ(observed, 0) << src << "->" << dst << " has no traffic";
          continue;
        }
        pairs.add(static_cast<double>(observed), expected);
        node_expected += expected;
        node_observed += observed;
      }
      if (node_expected > 0.0) {
        nodes.add(static_cast<double>(node_observed), node_expected);
      }
    }
  }
  EXPECT_EQ(pairs.terms, kSeeds * static_cast<long>(n * (n - 1)));
  EXPECT_LT(std::abs(pairs.z()), 5.0)
      << "per-pair chi-square " << pairs.statistic << " over " << pairs.terms
      << " counts";
  EXPECT_LT(std::abs(nodes.z()), 5.0)
      << "per-node chi-square " << nodes.statistic << " over " << nodes.terms
      << " counts";
}

// ---------------------------------------------------------------------------
// Table-1 indicators against the per-pair model.

constexpr std::size_t kIndicators = 5;
constexpr std::array<const char*, kIndicators> kIndicatorNames = {
    "rtt_ms", "delivered_kbps", "path_ratio", "updates_per_trunk_s",
    "drop_frac"};

/// One seed of the Table-1 scenario: arpanet87, HN-SPF, an 800 kb/s peak
/// hour (heavy enough that some seeds drop packets).
std::array<double, kIndicators> table1_run(std::uint64_t seed) {
  const net::Topology net87 = net::build_topology("arpanet87");
  NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kHnSpf;
  cfg.seed = seed;
  Network net{net87, cfg};
  net.add_traffic(peak_hour(net87, 800e3));
  net.run_for(SimTime::from_sec(30));
  net.reset_stats();
  net.run_for(SimTime::from_sec(90));
  const stats::NetworkIndicators ind = net.indicators("HN-SPF");
  const NetworkStats& s = net.stats();
  const double dropped = static_cast<double>(s.packets_dropped_queue +
                                             s.packets_dropped_unreachable +
                                             s.packets_dropped_loop);
  return {ind.round_trip_delay_ms, ind.internode_traffic_kbps,
          ind.path_ratio(), ind.updates_per_trunk_sec,
          dropped / static_cast<double>(s.packets_generated)};
}

struct Moments {
  double mean;
  double sd;
};

/// Mean and sample standard deviation of each indicator over seeds
/// 1..`seeds`.
std::array<Moments, kIndicators> table1_moments(int seeds) {
  std::array<std::vector<double>, kIndicators> samples;
  for (int seed = 1; seed <= seeds; ++seed) {
    const auto run = table1_run(static_cast<std::uint64_t>(seed));
    for (std::size_t i = 0; i < kIndicators; ++i) samples[i].push_back(run[i]);
  }
  std::array<Moments, kIndicators> out{};
  for (std::size_t i = 0; i < kIndicators; ++i) {
    double sum = 0.0;
    for (const double x : samples[i]) sum += x;
    const double mean = sum / seeds;
    double ss = 0.0;
    for (const double x : samples[i]) ss += (x - mean) * (x - mean);
    out[i] = {mean, std::sqrt(ss / (seeds - 1))};
  }
  return out;
}

/// The per-pair model's moments of table1_run over kReferenceSeeds seeds,
/// measured once on the last commit with one source per matrix entry by
/// running this file's DISABLED_PrintTable1Moments there (see CHANGES.md
/// for the command).
constexpr std::array<Moments, kIndicators> kPerPairReference = {{
    {241.092397, 4.59018057},          // rtt_ms
    {799.767847, 3.08413279},          // delivered_kbps
    {1.01701484, 0.000717119835},      // path_ratio
    {1.71046049, 0.062997937},         // updates_per_trunk_s
    {0.000228003065, 0.000272997796},  // drop_frac
}};

TEST(SuperpositionTest, Table1IndicatorsMatchThePerPairModel) {
  const auto moments = table1_moments(kSeeds);
  for (std::size_t i = 0; i < kIndicators; ++i) {
    const Moments& ref = kPerPairReference[i];
    const Moments& now = moments[i];
    // Standard error of the difference of two independent means.
    const double se = std::sqrt(ref.sd * ref.sd / kReferenceSeeds +
                                now.sd * now.sd / kSeeds);
    EXPECT_LE(std::abs(now.mean - ref.mean), 3.0 * se)
        << kIndicatorNames[i] << ": per-pair " << ref.mean << " (sd " << ref.sd
        << "), superposed " << now.mean << " (sd " << now.sd << ")";
  }
}

/// Prints the current model's moments in the form of kPerPairReference.
TEST(SuperpositionTest, DISABLED_PrintTable1Moments) {
  const auto moments = table1_moments(kReferenceSeeds);
  for (std::size_t i = 0; i < kIndicators; ++i) {
    std::printf("    {%.9g, %.9g},  // %s\n", moments[i].mean, moments[i].sd,
                kIndicatorNames[i]);
  }
}

}  // namespace
}  // namespace arpanet::sim
