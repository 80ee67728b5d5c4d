#include "src/net/builders/registry.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

namespace arpanet::net {

namespace {

using builders::families::arpanet87;
using builders::families::barabasi_albert;
using builders::families::clustered;
using builders::families::fat_tree;
using builders::families::grid;
using builders::families::grid_shape_nodes;
using builders::families::hier_as;
using builders::families::leo_grid;
using builders::families::milnet;
using builders::families::random_connected;
using builders::families::ring;
using builders::families::two_region;
using builders::families::two_region_shape_nodes;
using builders::families::waxman;

// ---- the family table ----

using ParamInfo = TopologyBuilder::ParamInfo;
using FamilyInfo = TopologyBuilder::FamilyInfo;

constexpr ParamInfo kTwoRegionParams[] = {
    {"per_region", 0, 4096, 0, "nodes per region (0 = nodes/2)"},
};
constexpr ParamInfo kGridParams[] = {
    {"width", 0, 4096, 0, "grid width (0 = derive near-square from nodes)"},
    {"height", 0, 4096, 0, "grid height (0 = derive from nodes and width)"},
};
constexpr ParamInfo kRandomParams[] = {
    {"extra", 0, 1e6, 0, "chords beyond the spanning tree (default nodes/4)"},
};
constexpr ParamInfo kClusteredParams[] = {
    {"clusters", 3, 1024, 4, "number of clusters"},
    {"per_cluster", 0, 4096, 0, "nodes per cluster (0 = nodes/clusters)"},
    {"intra_extra", 0, 64, 2, "random chords inside each cluster"},
    {"inter_trunks", 1, 16, 2, "trunks between adjacent clusters"},
};
constexpr ParamInfo kHierAsParams[] = {
    {"core", 0, 1024, 0, "core nodes (0 = clamp(nodes/100, 4, 64))"},
};
constexpr ParamInfo kWaxmanParams[] = {
    {"alpha", 1e-6, 1.0, 0.4, "Waxman edge-probability scale"},
    {"beta", 1e-6, 1.0, 0.14, "Waxman distance decay"},
    {"m", 1, 16, 2, "edges added per node"},
    {"scale_km", 1, 20000, 4000, "unit-square edge length in km (sets delay)"},
};
constexpr ParamInfo kBaParams[] = {
    {"m", 1, 16, 2, "edges added per node"},
};
constexpr ParamInfo kFatTreeParams[] = {
    {"k", 0, 128, 0, "fat-tree arity, even (0 = largest fitting nodes)"},
};
constexpr ParamInfo kLeoGridParams[] = {
    {"planes", 0, 1024, 0, "orbital planes (0 = ~sqrt(nodes))"},
    {"per_plane", 0, 1024, 0, "satellites per plane (0 = nodes/planes)"},
    {"altitude_km", 200, 2000, 550, "orbit altitude"},
    {"inclination_deg", 0, 90, 53, "orbit inclination"},
};

const FamilyInfo kFamilies[] = {
    {"arpanet87", "the 47-PSN / 75-trunk July 1987 ARPANET (MIT, UCLA, ...)",
     arpanet87, {}, 47, 47, 47},
    {"two-region",
     "figure 1's regions A0..A{k-1} and B0..B{k-1} joined by links A "
     "(A0-B0) and B (A{k/2}-B{k/2})",
     two_region, kTwoRegionParams, 12, 6, 8192, two_region_shape_nodes},
    {"ring", "cycle of 56 kb/s terrestrial trunks", ring, {}, 8, 3, 0},
    {"grid", "width x height mesh", grid, kGridParams, 16, 4, 0,
     grid_shape_nodes},
    {"random", "random spanning tree plus chords", random_connected,
     kRandomParams, 16, 2, 100000},
    {"clustered", "rings of clusters joined by gateway trunks",
     clustered, kClusteredParams, 24, 9, 100000},
    {"milnet", "the MILNET-like 112-PSN deployment", milnet, {}, 112,
     112, 112},
    {"hier-as", "three-tier AS hierarchy: core / transit / stub", hier_as,
     kHierAsParams, 512, 8, 0},
    {"waxman", "geometric Waxman random graph (O(n^2) build)", waxman,
     kWaxmanParams, 256, 2, 20000},
    {"ba", "Barabasi-Albert preferential attachment", barabasi_albert,
     kBaParams, 1024, 2, 0},
    {"fat-tree", "k-ary fat-tree datacenter fabric", fat_tree, kFatTreeParams,
     80, 5, 0},
    {"leo-grid", "LEO constellation torus, orbit-dependent delay", leo_grid,
     kLeoGridParams, 64, 9, 0},
};

std::string known_family_names() {
  std::ostringstream out;
  for (std::size_t i = 0; i < std::size(kFamilies); ++i) {
    if (i != 0) out << ", ";
    out << kFamilies[i].name;
  }
  return out.str();
}

}  // namespace

const TopologyBuilder& TopologyBuilder::registry() {
  static const TopologyBuilder instance;
  return instance;
}

bool TopologyBuilder::has_family(std::string_view name) const {
  return std::any_of(std::begin(kFamilies), std::end(kFamilies),
                     [name](const FamilyInfo& f) { return f.name == name; });
}

const TopologyBuilder::FamilyInfo& TopologyBuilder::family(
    std::string_view name) const {
  for (const FamilyInfo& f : kFamilies) {
    if (f.name == name) return f;
  }
  throw std::invalid_argument("unknown topology family '" + std::string(name) +
                              "' (known: " + known_family_names() + ")");
}

std::span<const TopologyBuilder::FamilyInfo> TopologyBuilder::families() const {
  return kFamilies;
}

std::size_t TopologyBuilder::validate(const GraphSpec& spec) const {
  const FamilyInfo& fam = family(spec.family());
  for (const auto& [key, value] : spec.params()) {
    const auto it =
        std::find_if(fam.params.begin(), fam.params.end(),
                     [&key](const ParamInfo& p) { return p.key == key; });
    if (it == fam.params.end()) {
      std::ostringstream msg;
      msg << "topology family '" << fam.name << "' has no parameter '" << key
          << "'";
      if (!fam.params.empty()) {
        msg << " (known:";
        for (const ParamInfo& p : fam.params) msg << " " << p.key;
        msg << ")";
      }
      throw std::invalid_argument(msg.str());
    }
    if (value < it->min_value || value > it->max_value) {
      std::ostringstream msg;
      msg << "topology family '" << fam.name << "': parameter '" << key
          << "' = " << value << " outside [" << it->min_value << ", "
          << it->max_value << "]";
      throw std::invalid_argument(msg.str());
    }
  }

  std::size_t nodes = spec.nodes();
  if (nodes == 0 && fam.shape_nodes != nullptr) nodes = fam.shape_nodes(spec);
  if (nodes == 0) nodes = fam.default_nodes;
  if (nodes < fam.min_nodes || (fam.max_nodes != 0 && nodes > fam.max_nodes)) {
    std::ostringstream msg;
    msg << "topology family '" << fam.name << "': node count " << nodes
        << " outside [" << fam.min_nodes << ", ";
    if (fam.max_nodes != 0) {
      msg << fam.max_nodes;
    } else {
      msg << "unbounded";
    }
    msg << "]";
    throw std::invalid_argument(msg.str());
  }
  return nodes;
}

Topology TopologyBuilder::build(const GraphSpec& spec) const {
  GraphSpec effective = spec;
  effective.with_nodes(validate(spec));
  Topology topo = family(spec.family()).build(effective);
  topo.finalize();
  return topo;
}

Topology build_topology(std::string_view spec) {
  return TopologyBuilder::registry().build(GraphSpec::parse(spec));
}

}  // namespace arpanet::net
