// The ARPANET-like reference network (July 1987 flavor).
//
// Not a survey-accurate map — the paper does not publish one — but a graph
// with the properties section 5 relies on: 47 PSNs, 75 trunks (average
// degree ~3.2), no bridge trunks ("rich with alternate paths"), a ~3.5-hop
// mean minimum path (Table 1's "Internode Minimum Path"), and the real
// network's heterogeneous trunking: a 56 kb/s terrestrial core, 9.6 kb/s
// tail sections, multi-trunk lines on the heaviest corridors, and satellite
// links to HAWAII.
//
// Construction: a 47-node "geographic" ring (guaranteeing 2-edge-
// connectivity, so no trunk is a bridge) plus 28 chords that shorten
// cross-country paths and thicken the core. Experiments address the two
// coasts by name: MIT (east) and UCLA (west).

#include <array>
#include <string>
#include <utility>

#include "src/net/builders/registry.h"

namespace arpanet::net::builders::families {

namespace {

// Ring order is roughly geographic: New England down the east coast,
// across the south, up the west coast, back through the mountain states
// and the midwest.
constexpr std::array<const char*, 47> kSites = {
    "MIT",      "LINCOLN",  "HARVARD",  "BBN",      "CCA",      "DEC",
    "YALE",     "NYU",      "COLUMBIA", "RUTGERS",  "PRINCETON", "UPENN",
    "ABERDEEN", "MITRE",    "PENTAGON", "ARPA",     "NBS",      "SDAC",
    "NRL",      "DUKE",     "GATECH",   "EGLIN",    "TEXAS",    "RICE",
    "TUCSON",   "SANDIA",   "WSMR",     "UCLA",     "USC",      "ISI",
    "RAND",     "SDC",      "XEROX",    "STANFORD", "SRI",      "AMES",
    "LBL",      "HAWAII",   "SEATTLE",  "UTAH",     "DENVER",   "NCAR",
    "ILLINOIS", "WISCONSIN", "CMU",     "CORNELL",  "RADC",
};

struct Chord {
  const char* a;
  const char* b;
  LineType type;
};

// 28 chords. The +16 "long-haul" family keeps the diameter small; the rest
// are regional alternates. The heaviest corridors run multi-trunk lines.
constexpr std::array<Chord, 28> kChords = {{
    // long-haul family (every third ring position, offset 16)
    {"MIT", "NBS", LineType::kMultiTrunk112},
    {"BBN", "DUKE", LineType::kTerrestrial56},
    {"YALE", "TEXAS", LineType::kTerrestrial56},
    {"RUTGERS", "TUCSON", LineType::kTerrestrial56},
    {"ABERDEEN", "UCLA", LineType::kMultiTrunk112},
    {"ARPA", "SDC", LineType::kTerrestrial56},
    {"NRL", "AMES", LineType::kTerrestrial56},
    {"EGLIN", "HAWAII", LineType::kSatellite56},
    {"TUCSON", "DENVER", LineType::kTerrestrial56},
    {"UCLA", "WISCONSIN", LineType::kMultiTrunk112},
    {"SDC", "RADC", LineType::kTerrestrial56},
    {"STANFORD", "HARVARD", LineType::kTerrestrial56},
    {"LBL", "DEC", LineType::kTerrestrial56},
    {"UTAH", "COLUMBIA", LineType::kTerrestrial56},
    {"ILLINOIS", "MITRE", LineType::kMultiTrunk112},
    {"CORNELL", "PENTAGON", LineType::kTerrestrial56},
    // shorter regional alternates (offset ~7)
    {"LINCOLN", "COLUMBIA", LineType::kTerrestrial56},
    {"COLUMBIA", "PENTAGON", LineType::kTerrestrial56},
    {"TEXAS", "ISI", LineType::kTerrestrial56},
    {"ISI", "LBL", LineType::kTerrestrial56},
    {"LBL", "NCAR", LineType::kTerrestrial56},
    {"WISCONSIN", "CCA", LineType::kTerrestrial56},
    // named corridors the experiments exercise
    {"DENVER", "ILLINOIS", LineType::kTerrestrial56},
    {"HAWAII", "AMES", LineType::kSatellite56},
    {"BBN", "RADC", LineType::kTerrestrial56},
    {"PENTAGON", "SDAC", LineType::kTerrestrial56},
    {"UCLA", "SDC", LineType::kTerrestrial56},
    {"STANFORD", "AMES", LineType::kMultiTrunk112},
}};

/// Ring sections running 9.6 kb/s tail trunks (the network's slow edges:
/// the southern tier and a New England tail).
constexpr std::array<std::pair<const char*, const char*>, 5> kSlowRingEdges = {{
    {"DUKE", "GATECH"},
    {"GATECH", "EGLIN"},
    {"RICE", "TUCSON"},
    {"SANDIA", "WSMR"},
    {"DEC", "YALE"},
}};

/// Ring sections reaching HAWAII are satellite links.
constexpr std::array<std::pair<const char*, const char*>, 2> kSatelliteRingEdges =
    {{{"LBL", "HAWAII"}, {"HAWAII", "SEATTLE"}}};

LineType ring_edge_type(const std::string& a, const std::string& b) {
  for (const auto& [x, y] : kSlowRingEdges) {
    if (a == x && b == y) return LineType::kTerrestrial9_6;
  }
  for (const auto& [x, y] : kSatelliteRingEdges) {
    if (a == x && b == y) return LineType::kSatellite56;
  }
  return LineType::kTerrestrial56;
}

}  // namespace

Topology arpanet87(const GraphSpec& /*spec*/) {
  Topology topo;
  for (const char* site : kSites) topo.add_node(site);

  // The geographic ring: 47 trunks.
  for (std::size_t i = 0; i < kSites.size(); ++i) {
    const std::size_t j = (i + 1) % kSites.size();
    topo.add_duplex(static_cast<NodeId>(i), static_cast<NodeId>(j),
                    ring_edge_type(kSites[i], kSites[j]));
  }
  // The 28 chords.
  for (const Chord& c : kChords) {
    topo.add_duplex(topo.node_by_name(c.a), topo.node_by_name(c.b), c.type);
  }
  return topo;
}

}  // namespace arpanet::net::builders::families
