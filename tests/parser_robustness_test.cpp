// Robustness of the two user-facing text parsers, FaultPlan::parse and
// net::parse_topology, against a seeded mutation corpus: truncations, byte
// flips, and numeric fields replaced by hostile values (nan, inf, 1e308,
// negative and huge ids). Every input must either parse or throw
// std::invalid_argument — never another exception, a crash, or undefined
// behaviour (the sanitizer build runs this suite too) — and a topology that
// parses must round-trip through topology_to_string.

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/builders/registry.h"
#include "src/net/topology_io.h"
#include "src/sim/fault_plan.h"
#include "src/util/rng.h"

namespace arpanet {
namespace {

constexpr std::array<std::string_view, 14> kHostileNumbers = {
    "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "-1", "-0",
    "4294967295", "4294967296", "18446744073709551616",
    "99999999999999999999999", "1e-320", ""};

constexpr int kMutantsPerSeed = 400;

/// Replaces one maximal run of digits (with any sign, point or exponent
/// attached) by a hostile value. Returns false when `text` has no digits.
bool replace_number(std::string& text, util::Rng& rng) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const bool digit = std::isdigit(static_cast<unsigned char>(text[i])) != 0;
    const bool prev_digit =
        i > 0 && std::isdigit(static_cast<unsigned char>(text[i - 1])) != 0;
    if (digit && !prev_digit) starts.push_back(i);
  }
  if (starts.empty()) return false;
  const std::size_t begin = starts[rng.uniform_index(starts.size())];
  std::size_t end = begin;
  while (end < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[end])) != 0 ||
          text[end] == '.' || text[end] == 'e' || text[end] == '-')) {
    ++end;
  }
  text.replace(begin, end - begin,
               kHostileNumbers[rng.uniform_index(kHostileNumbers.size())]);
  return true;
}

/// One to three stacked mutations of `seed`.
std::string mutate(std::string_view seed, util::Rng& rng) {
  std::string text{seed};
  const int rounds = 1 + static_cast<int>(rng.uniform_index(3));
  for (int r = 0; r < rounds; ++r) {
    switch (rng.uniform_index(4)) {
      case 0:  // truncation
        text.resize(rng.uniform_index(text.size() + 1));
        break;
      case 1:  // byte flip, any of the 256 values
        if (!text.empty()) {
          text[rng.uniform_index(text.size())] =
              static_cast<char>(rng.uniform_index(256));
        }
        break;
      case 2:  // hostile insertion
        text.insert(rng.uniform_index(text.size() + 1),
                    kHostileNumbers[rng.uniform_index(kHostileNumbers.size())]);
        break;
      default:
        if (!replace_number(text, rng)) text.clear();
        break;
    }
  }
  return text;
}

struct Outcomes {
  int parsed = 0;
  int rejected = 0;
};

/// Feeds kMutantsPerSeed mutants of every seed to `parse`, which must
/// return normally or throw std::invalid_argument (anything else escapes
/// and fails the test).
template <typename Parse>
Outcomes run_corpus(const std::vector<std::string>& seeds,
                    std::uint64_t rng_seed, Parse&& parse) {
  util::Rng rng{rng_seed};
  Outcomes out;
  for (const std::string& seed : seeds) {
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string input = mutate(seed, rng);
      try {
        parse(input);
        ++out.parsed;
      } catch (const std::invalid_argument&) {
        ++out.rejected;
      }
    }
  }
  return out;
}

TEST(ParserRobustnessTest, FaultPlanRejectsHostileNumbers) {
  for (const char* spec : {
           "flap:link=nan,dwell_s=2",
           "flap:link=inf,dwell_s=2",
           "flap:link=1e308,dwell_s=2",
           "flap:link=-1,dwell_s=2",
           "flap:link=4294967296,dwell_s=2",
           "flap:link=1.5,dwell_s=2",
           "flap:link=1,dwell_s=nan",
           "flap:link=1,dwell_s=inf",
           "flap:link=1,dwell_s=1e308",
           "flap:link=1,period_s=-inf,dwell_s=2",
           "flap:link=1,period_s=10,dwell_s=2,count=4294967295",
           "crash:node=1,at_s=-1e308,dwell_s=1",
           "outage:nodes=1+nan,at_s=1,dwell_s=1",
           "partition:a=0+-1,b=3,at_s=1,dwell_s=1",
           "upgrade:link=1,at_s=inf,type=112kb-multitrunk",
       }) {
    EXPECT_THROW((void)sim::FaultPlan::parse(spec), std::invalid_argument)
        << spec;
  }
}

TEST(ParserRobustnessTest, TopologyRejectsHostileDelays) {
  for (const char* delay :
       {"prop_ms=nan", "prop_ms=inf", "prop_ms=-inf", "prop_ms=1e308",
        "prop_ms=-1", "prop_us=-5", "prop_us=99999999999999999999",
        "prop_us=1e3", "prop_us=nan",
        // Fit the number types but overflow SimTime once an arrival is
        // scheduled: Topology::add_duplex's delay bound rejects them.
        "prop_us=9223372036854775000", "prop_ms=9.2e15"}) {
    const std::string text =
        std::string("node a\nnode b\ntrunk a b 56kb-terrestrial ") + delay;
    EXPECT_THROW((void)net::parse_topology(text), std::invalid_argument)
        << delay;
  }
}

TEST(ParserRobustnessTest, MutatedFaultPlansParseOrThrowInvalidArgument) {
  const std::vector<std::string> seeds = {
      "flap:link=3,period_s=10,dwell_s=2",
      "flap:link=2,at_s=24,dwell_s=6,count=1",
      "crash:node=4,at_s=30,dwell_s=10;upgrade:link=1,at_s=60,"
      "type=112kb-multitrunk",
      "outage:nodes=1+2+5,at_s=30,dwell_s=10",
      "partition:a=0+1+2,b=3+4+5,at_s=30.5,dwell_s=1e1",
  };
  const Outcomes out =
      run_corpus(seeds, 0x5eed'fa17ULL, [](const std::string& s) {
        (void)sim::FaultPlan::parse(s);
      });
  // Both outcomes occur, so the corpus reaches past the first syntax check.
  EXPECT_GT(out.parsed, 0);
  EXPECT_GT(out.rejected, 0);
}

TEST(ParserRobustnessTest, MutatedTopologiesParseOrThrowAndRoundTrip) {
  const std::vector<std::string> seeds = {
      "# hand-written\n"
      "node MIT\nnode BBN\nnode LINCOLN\n"
      "trunk MIT BBN 56kb-terrestrial\n"
      "trunk MIT LINCOLN 56kb-terrestrial prop_ms=2.5  # short hop\n"
      "trunk BBN LINCOLN 9.6kb-satellite prop_us=2500\n",
      net::topology_to_string(net::build_topology("ring:nodes=5")),
  };
  const Outcomes out =
      run_corpus(seeds, 0x70b0'1091ULL, [](const std::string& s) {
        const net::Topology topo = net::parse_topology(s);
        const std::string written = net::topology_to_string(topo);
        EXPECT_EQ(net::topology_to_string(net::parse_topology(written)),
                  written)
            << "input:\n"
            << s;
      });
  EXPECT_GT(out.parsed, 0);
  EXPECT_GT(out.rejected, 0);
}

}  // namespace
}  // namespace arpanet
