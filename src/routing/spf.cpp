#include "src/routing/spf.h"

#include <algorithm>
#include <limits>
#include <string>
#include <stdexcept>

#include "src/util/check.h"

namespace arpanet::routing {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// (dist, node) binary min-heap over a plain vector. std::push_heap/pop_heap
// sift exactly like std::priority_queue's, but the vector's capacity can be
// reused across passes (SpfScratch::heap).
using HeapEntry = std::pair<double, net::NodeId>;
using HeapVec = std::vector<HeapEntry>;

// ARPALINT-HOTPATH-BEGIN
void heap_push(HeapVec& heap, double dist, net::NodeId node) {
  // ARPALINT-ALLOW(hot-path-alloc): scratch heap retains capacity across passes
  heap.emplace_back(dist, node);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

HeapEntry heap_pop(HeapVec& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  const HeapEntry e = heap.back();
  heap.pop_back();
  return e;
}
// ARPALINT-HOTPATH-END

void check_costs(const net::Topology& topo, std::span<const double> costs) {
  if (costs.size() != topo.link_count()) {
    throw std::invalid_argument("link cost vector size != link count");
  }
  for (const double c : costs) {
    if (!(c > 0.0)) throw std::invalid_argument("link costs must be positive");
  }
}

/// The two cost layouts a tree is computed over: an id-indexed cost map
/// (Spf::compute) and per-origin rows (IncrementalSpf). Both are called
/// with a link, its from-node and its slot in that node's out_links slice,
/// and each reads the one it needs.
struct IdCosts {
  std::span<const double> costs;
  double operator()(net::LinkId link, net::NodeId /*from*/,
                    std::uint32_t /*pos*/) const {
    return costs[link];
  }
};
struct RowCosts {
  const double* const* rows;
  double operator()(net::LinkId /*link*/, net::NodeId from,
                    std::uint32_t pos) const {
    return rows[from][pos];
  }
};

/// The canonical parent of v: the lowest-id in-link (u,v) with
/// dist[u] + cost == dist[v], or kInvalidLink if none achieves it. Because
/// relaxations only ever propagate from settled nodes, the achieving sum is
/// bit-exact and the equality test is safe. Deriving structure from
/// distances (rather than keeping whatever parents Dijkstra's settle order
/// happened to produce) is what makes every PSN compute the identical tree
/// from identical costs.
// ARPALINT-HOTPATH-BEGIN
template <class Costs>
net::LinkId canonical_parent(const net::Topology& topo, const Costs& cost,
                             std::span<const double> dist, net::NodeId v) {
  const std::span<const net::LinkId> ins = topo.in_links(v);
  const std::span<const net::NodeId> froms = topo.out_targets(v);
  const std::span<const std::uint32_t> pos = topo.in_pos(v);
  net::LinkId best = net::kInvalidLink;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const double du = dist[froms[i]];
    if (du == kInf) continue;
    if (du + cost(ins[i], froms[i], pos[i]) == dist[v] && ins[i] < best) {
      best = ins[i];
    }
  }
  return best;
}
// ARPALINT-HOTPATH-END

/// Derives parent links and first hops from final distances.
/// `order` lists every node with parents before children: positive costs
/// mean dist strictly increases along tree edges, so any nondecreasing-
/// distance order qualifies (equal-dist nodes are never parent/child).
template <class Costs>
void derive_structure(const net::Topology& topo, const Costs& cost,
                      SpfTree& tree, std::span<const net::NodeId> order) {
  const std::size_t n = topo.node_count();
  tree.parent_link.assign(n, net::kInvalidLink);
  tree.first_hop.assign(n, net::kInvalidLink);
  for (const net::NodeId v : order) {
    if (v == tree.root) continue;
    const net::LinkId pl = canonical_parent(topo, cost, tree.dist, v);
    if (pl == net::kInvalidLink) continue;
    tree.parent_link[v] = pl;
    const net::NodeId u = topo.link(pl).from;
    // Parents come before children in `order`, so the parent's structure
    // must already exist — a missing first hop here means the distance
    // array is inconsistent with the parent derivation.
    ARPA_DCHECK(u == tree.root || tree.first_hop[u] != net::kInvalidLink)
        << "node " << v << " derived a parent (" << u
        << ") with no structure yet";
    tree.first_hop[v] = (u == tree.root) ? pl : tree.first_hop[u];
  }
}

/// One-shot Dijkstra over positive costs in either layout. It works in
/// the given heap, settle-order list and per-node marks (all zero), and
/// leaves the marks clear: a PSN's shared SpfScratch can lend all three.
template <class Costs>
SpfTree compute_tree(const net::Topology& topo, net::NodeId root,
                     const Costs& cost, HeapVec& heap,
                     std::vector<net::NodeId>& order,
                     std::vector<std::uint8_t>& settled) {
  if (root >= topo.node_count()) throw std::out_of_range("SPF root out of range");

  SpfTree tree;
  tree.root = root;
  tree.dist.assign(topo.node_count(), kInf);
  tree.dist[root] = 0.0;

  // Settle order is nondecreasing in distance, so it doubles as the
  // parents-before-children order derive_structure needs.
  order.clear();
  order.reserve(topo.node_count());
  heap.clear();
  heap_push(heap, 0.0, root);
  while (!heap.empty()) {
    const auto [d, u] = heap_pop(heap);
    if (settled[u]) continue;
    settled[u] = 1;
    order.push_back(u);
    // Parallel CSR slices: the relaxation touches only the link id (cost
    // index) and the target node, never the 48-byte Link record.
    const std::span<const net::LinkId> lids = topo.out_links(u);
    const std::span<const net::NodeId> tos = topo.out_targets(u);
    for (std::size_t i = 0; i < lids.size(); ++i) {
      const double nd = d + cost(lids[i], u, static_cast<std::uint32_t>(i));
      if (nd < tree.dist[tos[i]]) {
        tree.dist[tos[i]] = nd;
        heap_push(heap, nd, tos[i]);
      }
    }
  }
  for (net::NodeId v = 0; v < topo.node_count(); ++v) {
    if (!settled[v]) order.push_back(v);
    settled[v] = 0;
  }

  derive_structure(topo, cost, tree, order);
  return tree;
}

}  // namespace

SpfTree Spf::compute(const net::Topology& topo, net::NodeId root,
                     std::span<const double> link_costs) {
  check_costs(topo, link_costs);
  HeapVec heap;
  std::vector<net::NodeId> order;
  std::vector<std::uint8_t> settled(topo.node_count(), 0);
  return compute_tree(topo, root, IdCosts{link_costs}, heap, order, settled);
}

int hop_count(const net::Topology& topo, const SpfTree& tree, net::NodeId v) {
  if (v != tree.root && tree.parent_link[v] == net::kInvalidLink) return -1;
  int hops = 0;
  for (net::NodeId at = v; at != tree.root; ++hops) {
    ARPA_CHECK(tree.parent_link[at] != net::kInvalidLink &&
               static_cast<std::size_t>(hops) < topo.node_count())
        << "parent chain from node " << v << " does not reach the root";
    at = topo.link(tree.parent_link[at]).from;
  }
  return hops;
}

SpfScratch::SpfScratch(const net::Topology& topo) {
  const std::size_t n = topo.node_count();
  heap.reserve(std::max(topo.link_count(), 2 * n));
  nodes.reserve(n);
  in_nodes.assign(n, 0);
  std::size_t max_degree = 0;
  for (net::NodeId v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, topo.out_links(v).size());
  }
  pending.reserve(max_degree);
}

IncrementalSpf::IncrementalSpf(const net::Topology& topo, net::NodeId root,
                               const LinkCosts& costs)
    : topo_{&topo},
      owned_scratch_{std::make_unique<SpfScratch>(topo)},
      scratch_{owned_scratch_.get()} {
  own_rows(costs);
  init(root);
}

IncrementalSpf::IncrementalSpf(const net::Topology& topo, net::NodeId root,
                               const LinkCosts& costs, SpfScratch& scratch)
    : topo_{&topo}, scratch_{&scratch} {
  own_rows(costs);
  init(root);
}

IncrementalSpf::IncrementalSpf(const net::Topology& topo, net::NodeId root,
                               std::span<const double* const> rows,
                               SpfScratch& scratch)
    : topo_{&topo}, rows_(rows.begin(), rows.end()), scratch_{&scratch} {
  ARPA_CHECK(rows_.size() == topo.node_count())
      << rows_.size() << " cost rows for " << topo.node_count() << " nodes";
  init(root);
}

void IncrementalSpf::own_rows(const LinkCosts& costs) {
  check_costs(*topo_, costs);
  const std::size_t n = topo_->node_count();
  rows_.resize(n);
  owned_rows_.reserve(topo_->link_count());
  for (net::NodeId u = 0; u < n; ++u) {
    rows_[u] = owned_rows_.data() + owned_rows_.size();
    for (const net::LinkId l : topo_->out_links(u)) {
      owned_rows_.push_back(costs[l]);
    }
  }
}

void IncrementalSpf::init(net::NodeId root) {
  // A scratch sized for the topology never grows in a pass, even for a PSN
  // whose first incremental update arrives long after construction (the
  // AllocGuard window assumes exactly this).
  ARPA_CHECK(scratch_->in_nodes.size() == topo_->node_count())
      << "SPF scratch sized for " << scratch_->in_nodes.size()
      << " nodes, topology has " << topo_->node_count();
  for (net::NodeId u = 0; u < rows_.size(); ++u) {
    for (std::size_t i = 0; i < topo_->out_links(u).size(); ++i) {
      if (!(rows_[u][i] > 0.0)) {
        throw std::invalid_argument("link costs must be positive");
      }
    }
  }
  tree_ = compute_tree(*topo_, root, RowCosts{rows_.data()}, scratch_->heap,
                       scratch_->nodes, scratch_->in_nodes);
  ++full_;
}

LinkCosts IncrementalSpf::costs() const {
  LinkCosts costs(topo_->link_count());
  for (net::NodeId u = 0; u < rows_.size(); ++u) {
    const std::span<const net::LinkId> lids = topo_->out_links(u);
    for (std::size_t i = 0; i < lids.size(); ++i) costs[lids[i]] = rows_[u][i];
  }
  return costs;
}

// ARPALINT-HOTPATH-BEGIN
void IncrementalSpf::set_cost(net::LinkId link, double new_cost) {
  if (owned_rows_.empty()) {
    throw std::logic_error("set_cost on a resident SPF; use adopt_row");
  }
  const net::Link& l = topo_->link(link);
  // rows_ point into owned_rows_, so this is the entry the passes read.
  const auto at =
      static_cast<std::size_t>(rows_[l.from] - owned_rows_.data()) +
      topo_->out_pos(link);
  change_cost(link, owned_rows_[at], new_cost);
}

void IncrementalSpf::adopt_row(net::NodeId origin, const double* row) {
  ARPA_DCHECK(owned_rows_.empty()) << "adopt_row on a standalone SPF";
  // The origin reads the pending row while its links change one at a time,
  // then `row`, which by then holds the same values.
  const std::span<const net::LinkId> lids = topo_->out_links(origin);
  std::vector<double>& pending = scratch_->pending;
  // ARPALINT-ALLOW(hot-path-alloc): reserved to the maximum out-degree
  pending.assign(rows_[origin], rows_[origin] + lids.size());
  rows_[origin] = pending.data();
  for (std::size_t i = 0; i < lids.size(); ++i) {
    change_cost(lids[i], pending[i], row[i]);
  }
  rows_[origin] = row;
}

void IncrementalSpf::change_cost(net::LinkId link, double& slot,
                                 double new_cost) {
  if (!(new_cost > 0.0)) throw std::invalid_argument("link costs must be positive");
  const double old_cost = slot;
  if (new_cost == old_cost) return;

  if (new_cost > old_cost && !tree_.uses_link(*topo_, link)) {
    // A cost increase on a link not in the tree cannot improve or invalidate
    // any path; the PSN skips all work (paper section 2.2).
    slot = new_cost;
    ++skipped_;
    return;
  }

  slot = new_cost;
  ++incremental_;
  const bool decrease = new_cost < old_cost;
  if (decrease) {
    decrease_pass(link, new_cost);
  } else {
    increase_pass(link);
  }
  repair_structure(topo_->link(link).to, decrease);
}

void IncrementalSpf::decrease_pass(net::LinkId link, double new_cost) {
  const net::Link& l = topo_->link(link);
  auto& nodes = scratch_->nodes;
  nodes.clear();
  if (tree_.dist[l.from] == kInf) return;
  const double cand = tree_.dist[l.from] + new_cost;
  if (cand >= tree_.dist[l.to]) return;

  HeapVec& heap = scratch_->heap;
  heap.clear();
  heap_push(heap, cand, l.to);
  while (!heap.empty()) {
    const auto [d, w] = heap_pop(heap);
    if (d >= tree_.dist[w]) continue;
    // Pops are nondecreasing, so each node is lowered at most once and the
    // region list stays duplicate-free.
    ARPA_DCHECK(!scratch_->in_nodes[w]) << "node " << w << " lowered twice";
    tree_.dist[w] = d;
    ++nodes_touched_;
    scratch_->in_nodes[w] = 1;
    // ARPALINT-ALLOW(hot-path-alloc): reserved to node_count in the ctor
    nodes.push_back(w);
    const double* row = rows_[w];
    const std::span<const net::NodeId> tos = topo_->out_targets(w);
    for (std::size_t i = 0; i < tos.size(); ++i) {
      const double nd = d + row[i];
      if (nd < tree_.dist[tos[i]]) heap_push(heap, nd, tos[i]);
    }
  }
}

void IncrementalSpf::increase_pass(net::LinkId link) {
  // Affected region: the subtree hanging below the head of the increased
  // link, walked breadth-first with `nodes` as the queue. The children of
  // x are the heads of x's out-links that are their parent links.
  // Everything else keeps its distance.
  auto& nodes = scratch_->nodes;
  auto& in_nodes = scratch_->in_nodes;
  const net::NodeId head = topo_->link(link).to;
  nodes.clear();
  // ARPALINT-ALLOW(hot-path-alloc): reserved to node_count in the ctor
  nodes.push_back(head);
  in_nodes[head] = 1;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::span<const net::LinkId> lids = topo_->out_links(nodes[i]);
    const std::span<const net::NodeId> tos = topo_->out_targets(nodes[i]);
    for (std::size_t k = 0; k < lids.size(); ++k) {
      if (tree_.parent_link[tos[k]] != lids[k]) continue;
      in_nodes[tos[k]] = 1;
      // ARPALINT-ALLOW(hot-path-alloc): reserved to node_count in the ctor
      nodes.push_back(tos[k]);
    }
  }
  for (const net::NodeId v : nodes) tree_.dist[v] = kInf;
  nodes_touched_ += static_cast<long>(nodes.size());

  // Re-run Dijkstra over the affected region, seeding each node with its
  // best entry over the in-links from the unaffected frontier (the
  // increased link among them).
  HeapVec& heap = scratch_->heap;
  heap.clear();
  for (const net::NodeId v : nodes) {
    const std::span<const net::NodeId> froms = topo_->out_targets(v);
    const std::span<const std::uint32_t> pos = topo_->in_pos(v);
    double best = kInf;
    for (std::size_t i = 0; i < froms.size(); ++i) {
      const double du = tree_.dist[froms[i]];
      if (in_nodes[froms[i]] || du == kInf) continue;
      best = std::min(best, du + rows_[froms[i]][pos[i]]);
    }
    if (best < kInf) heap_push(heap, best, v);
  }
  while (!heap.empty()) {
    const auto [d, w] = heap_pop(heap);
    if (d >= tree_.dist[w]) continue;
    tree_.dist[w] = d;
    const double* row = rows_[w];
    const std::span<const net::NodeId> tos = topo_->out_targets(w);
    for (std::size_t i = 0; i < tos.size(); ++i) {
      if (!in_nodes[tos[i]]) continue;
      const double nd = d + row[i];
      if (nd < tree_.dist[tos[i]]) heap_push(heap, nd, tos[i]);
    }
  }
}

void IncrementalSpf::repair_structure(net::NodeId head, bool decrease) {
  // A node's canonical parent can change only if its distance or one of its
  // in-link sums moved. The head of the changed link (its in-link cost
  // moved) and the region whose distances the pass reset or lowered
  // (scratch_->nodes) get a full canonical_parent scan. Any other node w
  // keeps its distance, and only the region's out-neighbours see an in-link
  // sum move, so w's parent link (u,w) has u outside the region: after an
  // increase pass because the region is the increased link's whole subtree,
  // after a decrease pass because a lowered u would have lowered w. An
  // increase only raises the region's sums, so w keeps its parent. A
  // decrease can make a region link (x,w) tie, and it takes over if its id
  // is lower than the parent's.
  auto& nodes = scratch_->nodes;
  auto& in_nodes = scratch_->in_nodes;
  const std::size_t region = nodes.size();
  if (!in_nodes[head]) {
    in_nodes[head] = 1;
    // ARPALINT-ALLOW(hot-path-alloc): reserved to node_count in the ctor
    nodes.push_back(head);
  }
  // nodes[0, scanned) get the full scan; tied out-neighbours are appended
  // after them once, marked 2, and re-parented on the spot.
  const std::size_t scanned = nodes.size();
  if (decrease) {
    for (std::size_t i = 0; i < region; ++i) {
      const double dx = tree_.dist[nodes[i]];
      const double* row = rows_[nodes[i]];
      const std::span<const net::LinkId> lids = topo_->out_links(nodes[i]);
      const std::span<const net::NodeId> tos = topo_->out_targets(nodes[i]);
      for (std::size_t k = 0; k < lids.size(); ++k) {
        const net::NodeId w = tos[k];
        if (in_nodes[w] == 1 || lids[k] >= tree_.parent_link[w] ||
            dx + row[k] != tree_.dist[w]) {
          continue;
        }
        tree_.parent_link[w] = lids[k];
        if (in_nodes[w] == 0) {
          in_nodes[w] = 2;
          // ARPALINT-ALLOW(hot-path-alloc): reserved to node_count in the ctor
          nodes.push_back(w);
        }
      }
    }
  }

  HeapVec& heap = scratch_->heap;
  heap.clear();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const net::NodeId v = nodes[i];
    in_nodes[v] = 0;
    if (i < scanned) {
      if (v == tree_.root) continue;
      const net::LinkId pl =
          canonical_parent(*topo_, RowCosts{rows_.data()}, tree_.dist, v);
      if (pl == tree_.parent_link[v]) continue;
      tree_.parent_link[v] = pl;
    }
    heap_push(heap, tree_.dist[v], v);
  }

  // Push first hops down from the re-parented nodes. Popping in distance
  // order settles every parent before its children. A child's first hop is
  // its parent's (below the root, its parent link), so the push stops at
  // any node whose first hop comes out unchanged. A node can be queued
  // twice (as re-parented and as a child); the second pop changes nothing.
  while (!heap.empty()) {
    const net::NodeId v = heap_pop(heap).second;
    const net::LinkId pl = tree_.parent_link[v];
    net::LinkId first_hop = net::kInvalidLink;
    if (pl != net::kInvalidLink) {
      const net::NodeId u = topo_->link(pl).from;
      ARPA_DCHECK(u == tree_.root || tree_.first_hop[u] != net::kInvalidLink)
          << "node " << v << " re-parented under " << u << " with no structure";
      first_hop = (u == tree_.root) ? pl : tree_.first_hop[u];
    }
    if (first_hop == tree_.first_hop[v]) continue;
    ++first_hop_changes_;
    tree_.first_hop[v] = first_hop;
    const std::span<const net::LinkId> lids = topo_->out_links(v);
    const std::span<const net::NodeId> tos = topo_->out_targets(v);
    for (std::size_t k = 0; k < lids.size(); ++k) {
      if (tree_.parent_link[tos[k]] == lids[k]) {
        heap_push(heap, tree_.dist[tos[k]], tos[k]);
      }
    }
  }
}

// ARPALINT-HOTPATH-END

MinHopTable min_hop_lengths(const net::Topology& topo) {
  const std::size_t n = topo.node_count();
  if (n > MinHopTable::kUnreachable) {
    throw std::invalid_argument("min-hop table: " + std::to_string(n) +
                                " nodes, paths may not fit 16 bits");
  }
  MinHopTable table{n, std::vector(n * n, MinHopTable::kUnreachable)};
  std::vector<net::NodeId> queue;
  queue.reserve(n);
  for (net::NodeId src = 0; src < n; ++src) {
    std::uint16_t* row = table.hops.data() + src * n;
    row[src] = 0;
    queue.assign(1, src);
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const net::NodeId u = queue[i];
      for (const net::NodeId v : topo.out_targets(u)) {
        if (row[v] == MinHopTable::kUnreachable) {
          row[v] = static_cast<std::uint16_t>(row[u] + 1);
          queue.push_back(v);
        }
      }
    }
  }
  return table;
}

}  // namespace arpanet::routing
