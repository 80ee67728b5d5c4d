#include "src/routing/multipath.h"

#include <limits>
#include <stdexcept>

namespace arpanet::routing {

MultipathSets MultipathSets::compute(const net::Topology& topo, net::NodeId root,
                                     std::span<const double> costs,
                                     double tolerance) {
  if (tolerance < 0.0) throw std::invalid_argument("negative multipath tolerance");
  for (const double c : costs) {
    if (!(c > 0.0)) {
      throw std::invalid_argument("multipath needs positive link costs");
    }
  }
  MultipathSets mp;
  mp.root_ = root;
  mp.sets_.resize(topo.node_count());

  const SpfTree own = Spf::compute(topo, root, costs);

  // One SPF per distinct neighbor (a neighbor reachable over two parallel
  // trunks is computed once).
  std::vector<const SpfTree*> neighbor_tree_of_link(topo.link_count(), nullptr);
  std::vector<SpfTree> neighbor_trees;
  neighbor_trees.reserve(topo.out_links(root).size());
  std::vector<int> tree_index(topo.node_count(), -1);
  for (const net::LinkId lid : topo.out_links(root)) {
    const net::NodeId x = topo.link(lid).to;
    if (tree_index[x] == -1) {
      tree_index[x] = static_cast<int>(neighbor_trees.size());
      neighbor_trees.push_back(Spf::compute(topo, x, costs));
    }
  }
  for (const net::LinkId lid : topo.out_links(root)) {
    neighbor_tree_of_link[lid] =
        &neighbor_trees[static_cast<std::size_t>(tree_index[topo.link(lid).to])];
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (net::NodeId dst = 0; dst < topo.node_count(); ++dst) {
    if (dst == root || own.dist[dst] == kInf) continue;
    // Numerical slack absorbs the different summation orders of the two
    // Dijkstra runs; the caller's tolerance admits nearly-equal paths, and
    // the downstream test keeps forwarding loop-free (see header).
    const double tol = tolerance + 1e-9 * (1.0 + own.dist[dst]);
    for (const net::LinkId lid : topo.out_links(root)) {
      const double rest = neighbor_tree_of_link[lid]->dist[dst];
      if (costs[lid] + rest <= own.dist[dst] + tol && rest < own.dist[dst]) {
        mp.sets_[dst].push_back(lid);
      }
    }
  }
  return mp;
}

std::vector<MultipathSets> compute_all_multipath(const net::Topology& topo,
                                                 std::span<const double> costs,
                                                 double tolerance) {
  std::vector<MultipathSets> all;
  all.reserve(topo.node_count());
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    all.push_back(MultipathSets::compute(topo, n, costs, tolerance));
  }
  return all;
}

}  // namespace arpanet::routing
