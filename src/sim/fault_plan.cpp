#include "src/sim/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/util/check.h"

namespace arpanet::sim {

namespace {

// ---------------------------------------------------------------------------
// String-spec parsing. Setup-time only; errors are user configuration
// mistakes and throw std::invalid_argument (compile-time plan validation
// against a topology uses ARPA_CHECK instead, see compile()).

[[noreturn]] void parse_fail(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("FaultPlan::parse: " + why + " in \"" +
                              std::string(spec) + "\"");
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (!s.empty()) {
    const std::size_t pos = s.find(sep);
    out.push_back(s.substr(0, pos));
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return out;
}

double to_double(std::string_view spec, std::string_view key, std::string_view value) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(std::string(value), &consumed);
    if (consumed != value.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    parse_fail(spec, "bad numeric value for '" + std::string(key) + "'");
  }
}

/// A time in seconds: finite and small enough for SimTime::from_sec.
util::SimTime to_seconds(std::string_view spec, std::string_view key,
                         std::string_view value) {
  const double v = to_double(spec, key, value);
  if (!(std::abs(v) <= util::SimTime::kMaxSec)) {
    parse_fail(spec, "'" + std::string(key) + "' is not a representable time");
  }
  return util::SimTime::from_sec(v);
}

std::uint32_t to_id(std::string_view spec, std::string_view key, std::string_view value) {
  const double v = to_double(spec, key, value);
  // Range first: converting NaN or an out-of-range double is undefined.
  if (!(v >= 0.0 && v <= std::numeric_limits<std::int32_t>::max()) ||
      v != std::trunc(v)) {
    parse_fail(spec,
               "'" + std::string(key) + "' must be an integer in [0, 2^31)");
  }
  return static_cast<std::uint32_t>(v);
}

std::vector<net::NodeId> to_node_list(std::string_view spec, std::string_view key,
                                      std::string_view value) {
  std::vector<net::NodeId> out;
  for (std::string_view item : split(value, '+')) out.push_back(to_id(spec, key, item));
  if (out.empty()) parse_fail(spec, "empty node list for '" + std::string(key) + "'");
  return out;
}

net::LineType to_line_type(std::string_view spec, std::string_view value) {
  const net::LineTypeInfo* all = net::all_line_types();
  for (int i = 0; i < net::kLineTypeCount; ++i) {
    if (all[i].name == value) return all[i].type;
  }
  parse_fail(spec, "unknown line type '" + std::string(value) + "'");
}

struct KeyValues {
  std::vector<std::pair<std::string_view, std::string_view>> pairs;

  [[nodiscard]] std::string_view get(std::string_view key) const {
    for (const auto& kv : pairs) {
      if (kv.first == key) return kv.second;
    }
    return {};
  }
  [[nodiscard]] bool has(std::string_view key) const {
    for (const auto& kv : pairs) {
      if (kv.first == key) return true;
    }
    return false;
  }
};

KeyValues parse_kvs(std::string_view spec, std::string_view body,
                    std::initializer_list<std::string_view> allowed) {
  KeyValues kvs;
  for (std::string_view item : split(body, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      parse_fail(spec, "expected key=value, got '" + std::string(item) + "'");
    }
    const std::string_view key = item.substr(0, eq);
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      parse_fail(spec, "unknown key '" + std::string(key) + "'");
    }
    if (kvs.has(key)) parse_fail(spec, "duplicate key '" + std::string(key) + "'");
    kvs.pairs.emplace_back(key, item.substr(eq + 1));
  }
  return kvs;
}

void require(std::string_view spec, const KeyValues& kvs,
             std::initializer_list<std::string_view> keys) {
  for (std::string_view key : keys) {
    if (!kvs.has(key)) parse_fail(spec, "missing required key '" + std::string(key) + "'");
  }
}

// ---------------------------------------------------------------------------
// Min-cut (Edmonds-Karp, unit trunk capacities). The topology's two simplex
// links per trunk are exactly the two unit-capacity directions of an
// undirected edge, so max-flow between the sides followed by a residual
// reachability pass yields a minimum set of trunks whose removal separates
// side_a from side_b.

struct FlowEdge {
  std::uint32_t to = 0;
  int cap = 0;
  std::size_t rev = 0;             // index of the reverse edge in adj[to]
  net::LinkId link = net::kInvalidLink;  // original simplex link, if any
};

class FlowGraph {
 public:
  explicit FlowGraph(std::size_t nodes) : adj_(nodes) {}

  void add_edge(std::uint32_t from, std::uint32_t to, int cap, net::LinkId link) {
    adj_[from].push_back(FlowEdge{to, cap, adj_[to].size(), link});
    adj_[to].push_back(FlowEdge{from, 0, adj_[from].size() - 1, net::kInvalidLink});
  }

  int max_flow(std::uint32_t source, std::uint32_t sink) {
    int total = 0;
    while (true) {
      // BFS for a shortest augmenting path.
      std::vector<std::pair<std::uint32_t, std::size_t>> parent(
          adj_.size(), {source, static_cast<std::size_t>(-1)});
      std::vector<bool> seen(adj_.size(), false);
      std::queue<std::uint32_t> frontier;
      frontier.push(source);
      seen[source] = true;
      while (!frontier.empty() && !seen[sink]) {
        const std::uint32_t v = frontier.front();
        frontier.pop();
        for (std::size_t i = 0; i < adj_[v].size(); ++i) {
          const FlowEdge& e = adj_[v][i];
          if (e.cap > 0 && !seen[e.to]) {
            seen[e.to] = true;
            parent[e.to] = {v, i};
            frontier.push(e.to);
          }
        }
      }
      if (!seen[sink]) return total;
      // Unit capacities: every augmenting path carries exactly 1.
      for (std::uint32_t v = sink; v != source;) {
        const auto [pv, pi] = parent[v];
        FlowEdge& e = adj_[pv][pi];
        e.cap -= 1;
        adj_[e.to][e.rev].cap += 1;
        v = pv;
      }
      total += 1;
    }
  }

  /// Nodes reachable from `source` in the residual graph (call after
  /// max_flow); the saturated edges leaving this set form a minimum cut.
  [[nodiscard]] std::vector<bool> residual_reachable(std::uint32_t source) const {
    std::vector<bool> seen(adj_.size(), false);
    std::queue<std::uint32_t> frontier;
    frontier.push(source);
    seen[source] = true;
    while (!frontier.empty()) {
      const std::uint32_t v = frontier.front();
      frontier.pop();
      for (const FlowEdge& e : adj_[v]) {
        if (e.cap > 0 && !seen[e.to]) {
          seen[e.to] = true;
          frontier.push(e.to);
        }
      }
    }
    return seen;
  }

  [[nodiscard]] const std::vector<std::vector<FlowEdge>>& adj() const { return adj_; }

 private:
  std::vector<std::vector<FlowEdge>> adj_;
};

/// Canonical trunk id: the smaller of the two simplex ids.
net::LinkId canonical_trunk(const net::Topology& topo, net::LinkId link) {
  const net::LinkId rev = topo.link(link).reverse;
  return std::min(link, rev);
}

std::vector<net::LinkId> min_cut_trunks(const net::Topology& topo,
                                        const std::vector<net::NodeId>& side_a,
                                        const std::vector<net::NodeId>& side_b) {
  const std::uint32_t n = static_cast<std::uint32_t>(topo.node_count());
  const std::uint32_t source = n;
  const std::uint32_t sink = n + 1;
  FlowGraph graph{n + 2};
  for (const net::Link& l : topo.links()) {
    graph.add_edge(l.from, l.to, 1, l.id);
  }
  const int uncuttable = static_cast<int>(topo.link_count()) + 1;
  for (net::NodeId a : side_a) graph.add_edge(source, a, uncuttable, net::kInvalidLink);
  for (net::NodeId b : side_b) graph.add_edge(b, sink, uncuttable, net::kInvalidLink);
  const int flow = graph.max_flow(source, sink);
  ARPA_CHECK(flow > 0 && flow <= static_cast<int>(topo.trunk_count()))
      << "partition: sides are not connected by any trunk (flow " << flow << ")";
  const std::vector<bool> reach = graph.residual_reachable(source);
  std::vector<net::LinkId> cut;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!reach[v]) continue;
    for (const FlowEdge& e : graph.adj()[v]) {
      if (e.link == net::kInvalidLink || reach[e.to]) continue;
      const net::LinkId trunk = canonical_trunk(topo, e.link);
      if (std::find(cut.begin(), cut.end(), trunk) == cut.end()) cut.push_back(trunk);
    }
  }
  std::sort(cut.begin(), cut.end());
  ARPA_CHECK(!cut.empty()) << "partition: min-cut produced no trunks";
  return cut;
}

// ---------------------------------------------------------------------------
// Compile-time validation helpers.

void check_node(const net::Topology& topo, net::NodeId node) {
  ARPA_CHECK(node < topo.node_count())
      << "fault names nonexistent node " << node << " (topology has "
      << topo.node_count() << " nodes)";
}

void check_link(const net::Topology& topo, net::LinkId link) {
  ARPA_CHECK(link < topo.link_count())
      << "fault names nonexistent link " << link << " (topology has "
      << topo.link_count() << " simplex links)";
}

/// Appends the canonical trunks adjacent to `node`, deduplicating in place.
void add_adjacent_trunks(const net::Topology& topo, net::NodeId node,
                         std::vector<net::LinkId>& trunks) {
  for (net::LinkId l : topo.out_links(node)) {
    const net::LinkId trunk = canonical_trunk(topo, l);
    if (std::find(trunks.begin(), trunks.end(), trunk) == trunks.end()) {
      trunks.push_back(trunk);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Fluent builders.

FaultPlan& FaultPlan::flap_link(net::LinkId link, util::SimTime at, util::SimTime dwell,
                                util::SimTime period, int count) {
  FaultSpec s;
  s.kind = FaultKind::kLinkFlap;
  s.link = link;
  s.at = at;
  s.dwell = dwell;
  s.period = period;
  s.count = count;
  specs_.push_back(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::crash_node(net::NodeId node, util::SimTime at, util::SimTime dwell) {
  FaultSpec s;
  s.kind = FaultKind::kNodeCrash;
  s.node = node;
  s.at = at;
  s.dwell = dwell;
  specs_.push_back(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::regional_outage(std::vector<net::NodeId> region, util::SimTime at,
                                      util::SimTime dwell) {
  FaultSpec s;
  s.kind = FaultKind::kRegionalOutage;
  s.region = std::move(region);
  s.at = at;
  s.dwell = dwell;
  specs_.push_back(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::partition(std::vector<net::NodeId> side_a,
                                std::vector<net::NodeId> side_b, util::SimTime at,
                                util::SimTime dwell) {
  FaultSpec s;
  s.kind = FaultKind::kPartition;
  s.side_a = std::move(side_a);
  s.side_b = std::move(side_b);
  s.at = at;
  s.dwell = dwell;
  specs_.push_back(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::upgrade_line(net::LinkId link, util::SimTime at,
                                   net::LineType new_type) {
  FaultSpec s;
  s.kind = FaultKind::kLineUpgrade;
  s.link = link;
  s.at = at;
  s.new_type = new_type;
  specs_.push_back(std::move(s));
  return *this;
}

// ---------------------------------------------------------------------------
// String form.

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  for (std::string_view entry : split(spec, ';')) {
    if (entry.empty()) continue;
    const std::size_t colon = entry.find(':');
    if (colon == std::string_view::npos) {
      parse_fail(entry, "expected kind:key=value,...");
    }
    const std::string_view kind = entry.substr(0, colon);
    const std::string_view body = entry.substr(colon + 1);
    if (kind == "flap") {
      const KeyValues kvs =
          parse_kvs(entry, body, {"link", "at_s", "dwell_s", "period_s", "count"});
      require(entry, kvs, {"link", "dwell_s"});
      const util::SimTime period =
          kvs.has("period_s")
              ? to_seconds(entry, "period_s", kvs.get("period_s"))
              : util::SimTime::zero();
      const util::SimTime at =
          kvs.has("at_s") ? to_seconds(entry, "at_s", kvs.get("at_s")) : period;
      const int count = kvs.has("count")
                            ? static_cast<int>(to_id(entry, "count", kvs.get("count")))
                            : (period > util::SimTime::zero() ? 0 : 1);
      plan.flap_link(to_id(entry, "link", kvs.get("link")), at,
                     to_seconds(entry, "dwell_s", kvs.get("dwell_s")), period,
                     count);
    } else if (kind == "crash") {
      const KeyValues kvs = parse_kvs(entry, body, {"node", "at_s", "dwell_s"});
      require(entry, kvs, {"node", "at_s", "dwell_s"});
      plan.crash_node(to_id(entry, "node", kvs.get("node")),
                      to_seconds(entry, "at_s", kvs.get("at_s")),
                      to_seconds(entry, "dwell_s", kvs.get("dwell_s")));
    } else if (kind == "outage") {
      const KeyValues kvs = parse_kvs(entry, body, {"nodes", "at_s", "dwell_s"});
      require(entry, kvs, {"nodes", "at_s", "dwell_s"});
      plan.regional_outage(to_node_list(entry, "nodes", kvs.get("nodes")),
                           to_seconds(entry, "at_s", kvs.get("at_s")),
                           to_seconds(entry, "dwell_s", kvs.get("dwell_s")));
    } else if (kind == "partition") {
      const KeyValues kvs = parse_kvs(entry, body, {"a", "b", "at_s", "dwell_s"});
      require(entry, kvs, {"a", "b", "at_s", "dwell_s"});
      plan.partition(to_node_list(entry, "a", kvs.get("a")),
                     to_node_list(entry, "b", kvs.get("b")),
                     to_seconds(entry, "at_s", kvs.get("at_s")),
                     to_seconds(entry, "dwell_s", kvs.get("dwell_s")));
    } else if (kind == "upgrade") {
      const KeyValues kvs = parse_kvs(entry, body, {"link", "at_s", "type"});
      require(entry, kvs, {"link", "at_s", "type"});
      plan.upgrade_line(to_id(entry, "link", kvs.get("link")),
                        to_seconds(entry, "at_s", kvs.get("at_s")),
                        to_line_type(entry, kvs.get("type")));
    } else {
      parse_fail(entry, "unknown fault kind '" + std::string(kind) + "'");
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Compilation.

std::vector<FaultAction> FaultPlan::compile(const net::Topology& topo,
                                            util::SimTime horizon) const {
  std::vector<FaultAction> actions;
  // Every down/up interval a compiled action pair holds on a trunk, for the
  // cross-fault overlap check. Node faults expand to their adjacent trunks
  // here so a crash overlapping a flap on an adjacent trunk is caught too.
  struct TrunkEvent {
    net::LinkId trunk;
    util::SimTime at;
    bool down;
  };
  std::vector<TrunkEvent> trunk_events;

  auto emit_interval = [&](FaultAction::Op down_op, FaultAction::Op up_op,
                           net::LinkId link, net::NodeId node, util::SimTime at,
                           util::SimTime dwell,
                           const std::vector<net::LinkId>& trunks) {
    ARPA_CHECK(dwell > util::SimTime::zero())
        << "fault dwell must be > 0 (got " << dwell.sec() << "s)";
    ARPA_CHECK(at >= util::SimTime::zero())
        << "fault onset must be >= 0 (got " << at.sec() << "s)";
    ARPA_CHECK(at + dwell <= horizon)
        << "fault event past scenario end: interval [" << at.sec() << "s, "
        << (at + dwell).sec() << "s] vs horizon " << horizon.sec() << "s";
    FaultAction down;
    down.op = down_op;
    down.at = at;
    down.link = link;
    down.node = node;
    actions.push_back(down);
    FaultAction up = down;
    up.op = up_op;
    up.at = at + dwell;
    actions.push_back(up);
    for (net::LinkId trunk : trunks) {
      trunk_events.push_back({trunk, at, true});
      trunk_events.push_back({trunk, at + dwell, false});
    }
  };

  std::vector<net::LinkId> trunks_scratch;
  for (const FaultSpec& s : specs_) {
    trunks_scratch.clear();
    switch (s.kind) {
      case FaultKind::kLinkFlap: {
        check_link(topo, s.link);
        trunks_scratch.push_back(canonical_trunk(topo, s.link));
        const bool repeating = s.period > util::SimTime::zero();
        ARPA_CHECK(repeating || s.count == 1)
            << "flap without a period must have count 1 (got " << s.count << ")";
        ARPA_CHECK(!repeating || s.period > s.dwell)
            << "flap period (" << s.period.sec() << "s) must exceed dwell ("
            << s.dwell.sec() << "s): consecutive occurrences would hold "
            << "overlapping down-intervals on link " << s.link;
        ARPA_CHECK(s.count >= 0) << "flap count must be >= 0 (got " << s.count << ")";
        int emitted = 0;
        for (util::SimTime at = s.at;; at += s.period) {
          if (s.count > 0 && emitted >= s.count) break;
          if (s.count == 0 && at + s.dwell > horizon) break;  // until horizon
          emit_interval(FaultAction::Op::kLinkDown, FaultAction::Op::kLinkUp, s.link,
                        net::kInvalidNode, at, s.dwell, trunks_scratch);
          ++emitted;
          if (!repeating) break;
        }
        ARPA_CHECK(emitted > 0)
            << "flap on link " << s.link << " emits no occurrence before the "
            << "scenario end (" << horizon.sec() << "s)";
        break;
      }
      case FaultKind::kNodeCrash: {
        check_node(topo, s.node);
        add_adjacent_trunks(topo, s.node, trunks_scratch);
        emit_interval(FaultAction::Op::kNodeDown, FaultAction::Op::kNodeUp,
                      net::kInvalidLink, s.node, s.at, s.dwell, trunks_scratch);
        break;
      }
      case FaultKind::kRegionalOutage: {
        ARPA_CHECK(!s.region.empty()) << "regional outage with empty node set";
        for (net::NodeId node : s.region) {
          check_node(topo, node);
          add_adjacent_trunks(topo, node, trunks_scratch);
        }
        // Expand to explicit per-trunk actions so a trunk interior to the
        // region (both endpoints down) is taken down exactly once.
        for (net::LinkId trunk : trunks_scratch) {
          emit_interval(FaultAction::Op::kLinkDown, FaultAction::Op::kLinkUp, trunk,
                        net::kInvalidNode, s.at, s.dwell, {trunk});
        }
        break;
      }
      case FaultKind::kPartition: {
        for (net::NodeId node : s.side_a) check_node(topo, node);
        for (net::NodeId node : s.side_b) check_node(topo, node);
        ARPA_CHECK(!s.side_a.empty() && !s.side_b.empty())
            << "partition sides must be non-empty";
        for (net::NodeId a : s.side_a) {
          ARPA_CHECK(std::find(s.side_b.begin(), s.side_b.end(), a) == s.side_b.end())
              << "partition sides overlap at node " << a;
        }
        for (net::LinkId trunk : min_cut_trunks(topo, s.side_a, s.side_b)) {
          emit_interval(FaultAction::Op::kLinkDown, FaultAction::Op::kLinkUp, trunk,
                        net::kInvalidNode, s.at, s.dwell, {trunk});
        }
        break;
      }
      case FaultKind::kLineUpgrade: {
        check_link(topo, s.link);
        ARPA_CHECK(s.at >= util::SimTime::zero())
            << "fault onset must be >= 0 (got " << s.at.sec() << "s)";
        ARPA_CHECK(s.at <= horizon)
            << "fault event past scenario end: upgrade at " << s.at.sec()
            << "s vs horizon " << horizon.sec() << "s";
        FaultAction a;
        a.op = FaultAction::Op::kUpgrade;
        a.at = s.at;
        a.link = s.link;
        a.new_type = s.new_type;
        actions.push_back(a);
        break;
      }
    }
  }

  // Overlap validation: per trunk, the down/up boundary sequence sorted by
  // time must strictly alternate down, up, down, up... — two downs in a row
  // (or coincident boundaries) mean two faults hold the trunk down over
  // overlapping intervals, which would heal early at the first up event.
  std::stable_sort(trunk_events.begin(), trunk_events.end(),
                   [](const TrunkEvent& x, const TrunkEvent& y) {
                     if (x.trunk != y.trunk) return x.trunk < y.trunk;
                     return x.at < y.at;
                   });
  for (std::size_t i = 1; i < trunk_events.size(); ++i) {
    const TrunkEvent& prev = trunk_events[i - 1];
    const TrunkEvent& cur = trunk_events[i];
    if (cur.trunk != prev.trunk) continue;
    ARPA_CHECK(cur.at > prev.at && cur.down != prev.down)
        << "overlapping down-intervals on trunk " << cur.trunk << " around t="
        << cur.at.sec() << "s: each trunk must be fully up between faults";
  }

  std::stable_sort(actions.begin(), actions.end(),
                   [](const FaultAction& x, const FaultAction& y) { return x.at < y.at; });
  return actions;
}

}  // namespace arpanet::sim
