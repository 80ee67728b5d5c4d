#include "src/net/topology_io.h"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace arpanet::net {

namespace {

[[noreturn]] void fail(int line_no, const std::string& message) {
  throw std::invalid_argument("topology line " + std::to_string(line_no) +
                              ": " + message);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is{line};
  std::string token;
  while (is >> token) {
    if (token.starts_with('#')) break;  // trailing comment
    tokens.push_back(std::move(token));
  }
  return tokens;
}

/// Accepts both delay forms: the exact integer `prop_us=<microseconds>` the
/// writer emits (SimTime is integer microseconds, so this round-trips
/// losslessly) and the legacy `prop_ms=<value>` for hand-written files.
util::SimTime parse_prop_delay(const std::string& token, int line_no) {
  constexpr std::string_view kUsPrefix = "prop_us=";
  constexpr std::string_view kMsPrefix = "prop_ms=";
  if (token.starts_with(kUsPrefix)) {
    const std::string_view value{token.data() + kUsPrefix.size(),
                                 token.size() - kUsPrefix.size()};
    std::int64_t us = 0;
    const auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), us);
    if (ec != std::errc{} || ptr != value.data() + value.size() || us < 0) {
      fail(line_no, "bad propagation delay '" + std::string(value) + "'");
    }
    return util::SimTime::from_us(us);
  }
  if (!token.starts_with(kMsPrefix)) {
    fail(line_no,
         "expected prop_ms=<value> or prop_us=<value>, got '" + token + "'");
  }
  const std::string_view value{token.data() + kMsPrefix.size(),
                               token.size() - kMsPrefix.size()};
  double ms = 0.0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), ms);
  // from_chars accepts "nan" and "inf"; both, like anything too large for
  // SimTime's microsecond count, fail the range test.
  if (ec != std::errc{} || ptr != value.data() + value.size() ||
      !(ms >= 0.0 && ms <= util::SimTime::kMaxSec * 1e3)) {
    fail(line_no, "bad propagation delay '" + std::string(value) + "'");
  }
  return util::SimTime::from_ms(ms);
}

}  // namespace

LineType line_type_from_string(std::string_view name) {
  for (int i = 0; i < kLineTypeCount; ++i) {
    const LineTypeInfo& info = all_line_types()[i];
    if (info.name == name) return info.type;
  }
  throw std::invalid_argument("unknown line type '" + std::string(name) + "'");
}

Topology parse_topology(std::istream& in) {
  Topology topo;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;

    if (tokens[0] == "node") {
      if (tokens.size() != 2) fail(line_no, "usage: node <name>");
      try {
        topo.add_node(tokens[1]);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else if (tokens[0] == "trunk") {
      if (tokens.size() != 4 && tokens.size() != 5) {
        fail(line_no, "usage: trunk <a> <b> <line-type> [prop_ms=<v>|prop_us=<v>]");
      }
      NodeId a = kInvalidNode;
      NodeId b = kInvalidNode;
      LineType type{};
      try {
        a = topo.node_by_name(tokens[1]);
        b = topo.node_by_name(tokens[2]);
        type = line_type_from_string(tokens[3]);
      } catch (const std::exception& e) {
        fail(line_no, e.what());
      }
      try {
        if (tokens.size() == 5) {
          topo.add_duplex(a, b, type, parse_prop_delay(tokens[4], line_no));
        } else {
          topo.add_duplex(a, b, type);
        }
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else {
      fail(line_no, "unknown directive '" + tokens[0] + "'");
    }
  }
  return topo;
}

Topology parse_topology(std::string_view text) {
  std::istringstream is{std::string(text)};
  return parse_topology(is);
}

void write_topology(std::ostream& out, const Topology& topo) {
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    out << "node " << topo.node_name(n) << '\n';
  }
  for (std::size_t l = 0; l < topo.link_count(); l += 2) {
    const Link& link = topo.link(static_cast<LinkId>(l));
    // Written as integer microseconds so the generated families' computed
    // delays (LEO slant ranges, Waxman distances) round-trip bit-exactly;
    // the parser still accepts prop_ms= for hand-written files.
    out << "trunk " << topo.node_name(link.from) << ' '
        << topo.node_name(link.to) << ' ' << to_string(link.type)
        << " prop_us=" << link.prop_delay.us() << '\n';
  }
}

std::string topology_to_string(const Topology& topo) {
  std::ostringstream os;
  write_topology(os, topo);
  return os.str();
}

}  // namespace arpanet::net
