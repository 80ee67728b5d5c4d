// Synthetic topology generators: rings, grids, random connected graphs,
// clustered networks, and the MILNET-like deployment target.

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/net/builders/registry.h"
#include "src/util/rng.h"

namespace arpanet::net::builders::families {

namespace {

std::string num_name(const std::string& prefix, int i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

/// "<p1><a>_<b>"-style two-index names, built with += so no
/// `const char* + std::string&&` concatenation is emitted (GCC 12's
/// -Wrestrict misfires on that pattern under heavy inlining).
std::string pair_name(const char* p1, int a, const char* p2, int b) {
  std::string name = p1;
  name += std::to_string(a);
  name += p2;
  name += std::to_string(b);
  return name;
}

}  // namespace

Topology ring(const GraphSpec& spec) {
  const auto n = static_cast<int>(spec.nodes());
  if (n < 3) throw std::invalid_argument("ring: need at least 3 nodes");
  Topology topo;
  for (int i = 0; i < n; ++i) topo.add_node(num_name("r", i));
  for (int i = 0; i < n; ++i) {
    topo.add_duplex(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
                    LineType::kTerrestrial56);
  }
  return topo;
}

std::size_t grid_shape_nodes(const GraphSpec& spec) {
  const auto w = static_cast<std::size_t>(spec.param("width", 0));
  const auto h = static_cast<std::size_t>(spec.param("height", 0));
  return w * h;
}

Topology grid(const GraphSpec& spec) {
  auto w = static_cast<std::size_t>(spec.param("width", 0));
  auto h = static_cast<std::size_t>(spec.param("height", 0));
  const std::size_t n = spec.nodes();
  const std::size_t shaped = grid_shape_nodes(spec);
  if (n != 0 && shaped != 0 && n != shaped) {
    throw std::invalid_argument(
        "grid: nodes=" + std::to_string(n) + " contradicts width=" +
        std::to_string(w) + " x height=" + std::to_string(h) + " (" +
        std::to_string(shaped) + " nodes)");
  }
  if (w == 0 && h == 0) {
    w = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::llround(std::sqrt(
               static_cast<double>(n)))));
    h = std::max<std::size_t>(2, (n + w - 1) / w);
  } else if (w == 0) {
    w = std::max<std::size_t>(2, (n + h - 1) / h);
  } else if (h == 0) {
    h = std::max<std::size_t>(2, (n + w - 1) / w);
  }
  if (w < 2 || h < 2) throw std::invalid_argument("grid: need at least 2x2");
  const auto width = static_cast<int>(w);
  const auto height = static_cast<int>(h);
  Topology topo;
  for (int r = 0; r < height; ++r) {
    for (int c = 0; c < width; ++c) {
      topo.add_node(pair_name("g", r, "_", c));
    }
  }
  const auto at = [width](int r, int c) {
    return static_cast<NodeId>(r * width + c);
  };
  for (int r = 0; r < height; ++r) {
    for (int c = 0; c < width; ++c) {
      if (c + 1 < width) {
        topo.add_duplex(at(r, c), at(r, c + 1), LineType::kTerrestrial56);
      }
      if (r + 1 < height) {
        topo.add_duplex(at(r, c), at(r + 1, c), LineType::kTerrestrial56);
      }
    }
  }
  return topo;
}

Topology random_connected(const GraphSpec& spec) {
  const auto nodes = static_cast<int>(spec.nodes());
  const int extra_trunks = spec.has_param("extra")
                               ? static_cast<int>(spec.param("extra", 0))
                               : nodes / 4;
  if (nodes < 2) throw std::invalid_argument("random: need >= 2 nodes");
  util::Rng rng{spec.seed()};
  Topology topo;
  for (int i = 0; i < nodes; ++i) topo.add_node(num_name("x", i));

  std::set<std::pair<NodeId, NodeId>> trunks;
  const auto add = [&](NodeId a, NodeId b) {
    const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    if (a == b || !trunks.insert(key).second) return false;
    topo.add_duplex(a, b, LineType::kTerrestrial56);
    return true;
  };

  // Random spanning tree: each node joins an already-connected predecessor.
  for (int i = 1; i < nodes; ++i) {
    add(static_cast<NodeId>(rng.uniform_index(static_cast<std::uint64_t>(i))),
        static_cast<NodeId>(i));
  }
  // Chords. Attempts are bounded so a dense request cannot spin forever.
  int added = 0;
  for (int attempt = 0; added < extra_trunks && attempt < 100 * extra_trunks + 100;
       ++attempt) {
    const auto a = static_cast<NodeId>(
        rng.uniform_index(static_cast<std::uint64_t>(nodes)));
    const auto b = static_cast<NodeId>(
        rng.uniform_index(static_cast<std::uint64_t>(nodes)));
    if (add(a, b)) ++added;
  }
  return topo;
}

Topology clustered(const GraphSpec& spec) {
  const auto clusters = static_cast<int>(spec.param("clusters", 4));
  const int per_cluster =
      spec.has_param("per_cluster")
          ? static_cast<int>(spec.param("per_cluster", 0))
          : static_cast<int>(std::max<std::size_t>(
                3, spec.nodes() / static_cast<std::size_t>(clusters)));
  const auto intra_extra = static_cast<int>(spec.param("intra_extra", 2));
  const auto inter_trunks = static_cast<int>(spec.param("inter_trunks", 2));
  if (clusters < 3) {
    throw std::invalid_argument("clustered: need >= 3 clusters");
  }
  if (per_cluster < 3) {
    throw std::invalid_argument("clustered: need >= 3 nodes per cluster");
  }
  if (inter_trunks < 1 || intra_extra < 0) {
    throw std::invalid_argument("clustered: bad trunk counts");
  }
  util::Rng rng{spec.seed()};
  Topology topo;
  std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(clusters));
  for (int c = 0; c < clusters; ++c) {
    auto& m = members[static_cast<std::size_t>(c)];
    for (int i = 0; i < per_cluster; ++i) {
      m.push_back(topo.add_node(pair_name("c", c, "n", i)));
    }
    // Intra-cluster ring (every node gets >= 2 trunks) plus random chords.
    for (int i = 0; i < per_cluster; ++i) {
      topo.add_duplex(m[static_cast<std::size_t>(i)],
                      m[static_cast<std::size_t>((i + 1) % per_cluster)],
                      LineType::kTerrestrial56);
    }
    for (int k = 0; k < intra_extra; ++k) {
      const auto n = static_cast<std::uint64_t>(per_cluster);
      const NodeId a = m[rng.uniform_index(n)];
      const NodeId b = m[rng.uniform_index(n)];
      if (a != b) topo.add_duplex(a, b, LineType::kTerrestrial56);
    }
  }
  // Cluster ring: adjacent clusters joined by inter_trunks trunks through
  // random gateways. With >= 3 clusters the ring keeps the network
  // 2-edge-connected at the cluster level.
  for (int c = 0; c < clusters; ++c) {
    const auto& from = members[static_cast<std::size_t>(c)];
    const auto& to = members[static_cast<std::size_t>((c + 1) % clusters)];
    for (int k = 0; k < inter_trunks; ++k) {
      topo.add_duplex(
          from[rng.uniform_index(static_cast<std::uint64_t>(from.size()))],
          to[rng.uniform_index(static_cast<std::uint64_t>(to.size()))],
          LineType::kMultiTrunk112);
    }
  }
  return topo;
}

Topology milnet(const GraphSpec& /*spec*/) {
  // 7 regional clusters of 16 PSNs = 112 nodes. Clusters 5 and 6 are the
  // overseas regions: every trunk reaching them is a satellite link. A
  // quarter of each cluster's ring runs at 9.6 kb/s (the MILNET's slow-tail
  // character). Deterministic: fixed structure, fixed gateways.
  constexpr int kClusters = 7;
  constexpr int kPerCluster = 16;
  Topology topo;
  std::vector<std::vector<NodeId>> members(kClusters);
  for (int c = 0; c < kClusters; ++c) {
    auto& m = members[static_cast<std::size_t>(c)];
    for (int i = 0; i < kPerCluster; ++i) {
      m.push_back(topo.add_node(pair_name("m", c, "n", i)));
    }
    for (int i = 0; i < kPerCluster; ++i) {
      // Every fourth ring section is a 9.6 kb/s tail trunk.
      const LineType type = (i % 4 == 3) ? LineType::kTerrestrial9_6
                                         : LineType::kTerrestrial56;
      topo.add_duplex(m[static_cast<std::size_t>(i)],
                      m[static_cast<std::size_t>((i + 1) % kPerCluster)], type);
    }
    // Two cross-chords keep intra-cluster paths short.
    topo.add_duplex(m[0], m[8], LineType::kTerrestrial56);
    topo.add_duplex(m[4], m[12], LineType::kTerrestrial56);
  }
  const auto overseas = [](int c) { return c == 5 || c == 6; };
  for (int c = 0; c < kClusters; ++c) {
    const int d = (c + 1) % kClusters;
    const LineType type = (overseas(c) || overseas(d))
                              ? LineType::kSatellite56
                              : LineType::kMultiTrunk112;
    const auto& from = members[static_cast<std::size_t>(c)];
    const auto& to = members[static_cast<std::size_t>(d)];
    // Two gateway trunks per adjacent cluster pair, distinct endpoints.
    topo.add_duplex(from[2], to[10], type);
    topo.add_duplex(from[6], to[14], type);
  }
  // One transcontinental shortcut between the two largest domestic hubs.
  topo.add_duplex(members[0][0], members[3][0], LineType::kMultiTrunk112);
  return topo;
}

}  // namespace arpanet::net::builders::families
