#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/traffic/poisson_source.h"
#include "src/traffic/traffic_matrix.h"

namespace arpanet::traffic {
namespace {

TEST(TrafficMatrixTest, UniformSplitsEvenly) {
  const TrafficMatrix m = TrafficMatrix::uniform(4, 1200.0);
  EXPECT_NEAR(m.total_bps(), 1200.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 100.0);  // 12 ordered pairs
  EXPECT_DOUBLE_EQ(m.at(3, 2), 100.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 0.0);
}

TEST(TrafficMatrixTest, SetAddValidate) {
  TrafficMatrix m{3};
  m.set(0, 1, 50.0);
  m.add(0, 1, 25.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 75.0);
  EXPECT_THROW(m.set(1, 1, 10.0), std::invalid_argument);
  EXPECT_THROW(m.set(0, 2, -1.0), std::invalid_argument);
}

TEST(TrafficMatrixTest, ScaleAndNormalize) {
  TrafficMatrix m = TrafficMatrix::uniform(3, 600.0);
  m.scale(2.0);
  EXPECT_NEAR(m.total_bps(), 1200.0, 1e-9);
  m.normalize_total(300.0);
  EXPECT_NEAR(m.total_bps(), 300.0, 1e-9);
}

TEST(TrafficMatrixTest, GravityProportionalToWeights) {
  const TrafficMatrix m = TrafficMatrix::gravity({1.0, 2.0, 1.0}, 1000.0);
  EXPECT_NEAR(m.total_bps(), 1000.0, 1e-9);
  // Pair (0,1) has weight 2, pair (0,2) weight 1.
  EXPECT_NEAR(m.at(0, 1) / m.at(0, 2), 2.0, 1e-9);
}

TEST(TrafficMatrixTest, PeakHourIsDeterministicAndSkewed) {
  const TrafficMatrix a = TrafficMatrix::peak_hour(20, 1e6, util::Rng{5});
  const TrafficMatrix b = TrafficMatrix::peak_hour(20, 1e6, util::Rng{5});
  EXPECT_NEAR(a.total_bps(), 1e6, 1e-3);
  double max_pair = 0;
  double min_pair = 1e18;
  for (net::NodeId s = 0; s < 20; ++s) {
    for (net::NodeId d = 0; d < 20; ++d) {
      EXPECT_DOUBLE_EQ(a.at(s, d), b.at(s, d));
      if (s == d) continue;
      max_pair = std::max(max_pair, a.at(s, d));
      min_pair = std::min(min_pair, a.at(s, d));
    }
  }
  // Skew: the busiest pair is much larger than the quietest.
  EXPECT_GT(max_pair / min_pair, 5.0);
}

TEST(PoissonProcessTest, MeanGapMatchesRate) {
  PoissonProcess p{50.0, util::Rng{31}};  // 50 pkts/sec
  double total = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) total += p.next_gap().sec();
  EXPECT_NEAR(total / n, 0.02, 0.001);
}

TEST(PoissonProcessTest, RejectsZeroRate) {
  EXPECT_THROW(PoissonProcess(0.0, util::Rng{1}), std::invalid_argument);
}

TEST(PoissonProcessTest, RejectsARateWhoseLongestGapOverflowsTheClock) {
  // At the slowest accepted rate, the longest gap Rng::exponential can draw
  // still converts to SimTime's microsecond count.
  EXPECT_NO_THROW(PoissonProcess(PoissonProcess::kMinRatePerSec, util::Rng{1}));
  const double longest_sec =
      util::Rng::kMaxExponentialMeans / PoissonProcess::kMinRatePerSec;
  EXPECT_LE(longest_sec, util::SimTime::kMaxSec * (1.0 + 1e-12));
  EXPECT_GT(util::SimTime::from_sec(longest_sec), util::SimTime::zero());
  // A vanishing rate's gaps would not; the rejection names the rate.
  try {
    (void)PoissonProcess{1e-15, util::Rng{1}};
    FAIL() << "a 1e-15 packets/s rate was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rate 1e-15 packets/s"),
              std::string::npos)
        << e.what();
  }
}

TEST(PacketSizerTest, MeanAndFloor) {
  PacketSizer sizer{600.0};
  util::Rng rng{37};
  double total = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double bits = sizer.sample(rng);
    EXPECT_GE(bits, 32.0);
    total += bits;
  }
  EXPECT_NEAR(total / n, 600.0, 5.0);
}

TEST(PacketSizerTest, RejectsMeanBelowFloor) {
  EXPECT_THROW(PacketSizer(10.0, 32.0), std::invalid_argument);
}

// ---- AliasTable: each outcome's probability, read off the columns, equals
// its weight's share to within rounding.

void expect_exact(const AliasTable& table, AliasTable::Range range,
                  const std::vector<double>& weights) {
  double sum = 0.0;
  for (const double w : weights) sum += w;
  for (std::uint32_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(table.probability(range, i), weights[i] / sum, 1e-12)
        << "outcome " << i;
  }
}

TEST(AliasTableTest, SingleEntryAlwaysDrawsIt) {
  AliasTable table;
  const std::vector<double> weights = {0.0, 3.5, 0.0};
  const AliasTable::Range r = table.add(weights);
  EXPECT_EQ(r.count, 1u);
  expect_exact(table, r, weights);
  util::Rng rng{5};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(r, rng), 1u);
}

TEST(AliasTableTest, SkewedWeightsAreExact) {
  AliasTable table;
  const std::vector<double> weights = {1e-6, 1.0};
  expect_exact(table, table.add(weights), weights);
  const std::vector<double> reversed = {1.0, 1e-6, 1e-6, 1.0};
  expect_exact(table, table.add(reversed), reversed);
}

TEST(AliasTableTest, ZeroEntriesGetNoColumnAndAreNeverDrawn) {
  AliasTable table;
  const std::vector<double> weights = {2.0, 0.0, 1.0, 0.0, 5.0};
  const AliasTable::Range r = table.add(weights);
  EXPECT_EQ(r.count, 3u);
  expect_exact(table, r, weights);
  EXPECT_EQ(table.probability(r, 1), 0.0);
  EXPECT_EQ(table.probability(r, 3), 0.0);
  util::Rng rng{9};
  for (int i = 0; i < 10'000; ++i) {
    const std::uint32_t d = table.sample(r, rng);
    EXPECT_TRUE(d == 0 || d == 2 || d == 4) << d;
  }
}

TEST(AliasTableTest, TablesShareOneColumnArray) {
  AliasTable table;
  util::Rng rng{13};
  std::vector<std::vector<double>> rows;
  std::vector<AliasTable::Range> ranges;
  std::uint32_t expected_first = 0;
  for (int k = 0; k < 4; ++k) {
    // A peak-hour-like row: 255 log-normal weights, self entry zero.
    std::vector<double> row(256);
    for (std::size_t d = 0; d < row.size(); ++d) {
      row[d] = d == static_cast<std::size_t>(k)
                   ? 0.0
                   : std::exp(3.0 * rng.uniform());
    }
    ranges.push_back(table.add(row));
    EXPECT_EQ(ranges.back().first, expected_first);
    EXPECT_EQ(ranges.back().count, 255u);
    expected_first += ranges.back().count;
    rows.push_back(std::move(row));
  }
  for (std::size_t k = 0; k < rows.size(); ++k) {
    expect_exact(table, ranges[k], rows[k]);
  }
}

TEST(AliasTableTest, DrawFrequenciesMatchWeights) {
  AliasTable table;
  const std::vector<double> weights = {1.0, 0.0, 2.0, 3.0, 10.0, 0.5};
  const AliasTable::Range r = table.add(weights);
  util::Rng rng{17};
  const int draws = 200'000;
  std::vector<int> hits(weights.size(), 0);
  for (int i = 0; i < draws; ++i) ++hits[table.sample(r, rng)];
  // Pearson chi-square over the five drawable outcomes (4 degrees of
  // freedom): 25 is far past its 0.9999 quantile (23.5).
  double chi2 = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] == 0.0) {
      EXPECT_EQ(hits[i], 0);
      continue;
    }
    const double expected = draws * weights[i] / 16.5;
    chi2 += (hits[i] - expected) * (hits[i] - expected) / expected;
  }
  EXPECT_LT(chi2, 25.0);
}

TEST(AliasTableTest, RejectsNegativeAndAllZeroWeights) {
  AliasTable table;
  EXPECT_THROW((void)table.add(std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)table.add(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  // Neither rejected table left columns behind.
  EXPECT_EQ(table.add(std::vector<double>{1.0}).first, 0u);
}

}  // namespace
}  // namespace arpanet::traffic
