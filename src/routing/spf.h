// Shortest Path First route computation.
//
// This is the route-computation half of the ARPANET scheme installed in May
// 1979 (McQuillan, Richer & Rosen): every PSN knows the full topology and all
// link costs, and computes a shortest-path tree rooted at itself with
// Dijkstra's algorithm. The July 1987 revision this library reproduces
// changed only the link costs fed into this computation, never the
// computation itself (paper abstract, section 4).
//
// Two entry points are provided:
//   * Spf::compute       — one-shot Dijkstra, used by analysis code.
//   * IncrementalSpf     — the PSN's resident algorithm, which "attempts to
//     perform only incremental adjustments necessitated by a link cost
//     change, e.g. if a routing update reports an increase in the cost for a
//     link not in the tree, the algorithm does not recompute any part of the
//     tree" (paper section 2.2).
//
// Determinism: ties between equal-cost paths are broken canonically (parent =
// lowest-id in-link achieving the node's distance), so every PSN derives the
// same tree from the same costs; with destination-only packet headers this
// consistency is what keeps forwarding loop-free between updates, because
// shortest paths are hereditary (paper section 4.1).

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/net/topology.h"

namespace arpanet::routing {

/// Link costs in routing units, indexed by LinkId. Costs must be positive.
using LinkCosts = std::vector<double>;

/// A shortest-path tree rooted at one node.
struct SpfTree {
  net::NodeId root = net::kInvalidNode;
  /// Distance from root, per node; +inf if unreachable.
  std::vector<double> dist;
  /// The in-link on the shortest path to each node (kInvalidLink for the
  /// root and unreachable nodes).
  std::vector<net::LinkId> parent_link;
  /// The root's outgoing link used to reach each node — the forwarding
  /// decision (kInvalidLink for the root and unreachable nodes).
  std::vector<net::LinkId> first_hop;

  /// True iff `link` is a tree edge (the parent link of its head node).
  [[nodiscard]] bool uses_link(const net::Topology& topo, net::LinkId link) const {
    return parent_link[topo.link(link).to] == link;
  }
};

/// Path length in hops from the tree's root to `v`, walked over parent
/// links: 0 for the root, -1 if `v` is unreachable. O(path length); fails
/// an ARPA_CHECK if the chain breaks or cycles before reaching the root.
[[nodiscard]] int hop_count(const net::Topology& topo, const SpfTree& tree,
                            net::NodeId v);

/// One-shot SPF.
class Spf {
 public:
  [[nodiscard]] static SpfTree compute(const net::Topology& topo, net::NodeId root,
                                       std::span<const double> link_costs);
};

/// Reusable workspace for the incremental passes, sized once for a topology
/// so a steady-state cost change allocates nothing: the heap, the region
/// list and the mark bytes keep their capacity across updates. A pass
/// leaves nothing behind in it, so any number of IncrementalSpf instances
/// over the same topology can share one scratch as long as their passes
/// never overlap: sim::Network owns one for all of its PSNs, which run one
/// pass at a time on one thread.
struct SpfScratch {
  /// Reserves the heap, the region list, the mark bytes and the pending
  /// row for passes over `topo`: the heap holds at most one entry per link
  /// in a distance pass and at most two per node in repair_structure's
  /// push; the pending row holds one origin's out-links.
  explicit SpfScratch(const net::Topology& topo);

  /// Binary min-heap of (dist, node), driven via std::push_heap/pop_heap.
  std::vector<std::pair<double, net::NodeId>> heap;
  /// The pass's region (nodes whose distance it reset or lowered), then the
  /// further candidates for parent re-derivation. Distinct nodes.
  std::vector<net::NodeId> nodes;
  /// Nonzero iff the node is in `nodes` (plain bytes, not vector<bool>).
  /// All zero between passes: each pass clears exactly the bytes it set.
  std::vector<std::uint8_t> in_nodes;
  /// The row an origin reads from while IncrementalSpf::adopt_row applies
  /// its new costs one link at a time: links already applied hold their new
  /// cost, the rest their old one. Unused between adoptions.
  std::vector<double> pending;
};

/// Resident incremental SPF, as run inside a PSN.
///
/// Maintains the tree across a stream of single-link cost changes. Distances
/// are updated with localized Dijkstra passes touching only affected nodes.
/// Parents are then re-derived canonically, but only for the nodes whose
/// parent can have changed, and first hops are pushed down the subtrees of
/// re-parented nodes, so every pass costs O(region x degree) rather than
/// O(nodes + links). The result is always bit-identical to a full
/// Spf::compute with the same costs (verified by property tests). Counters
/// expose how much work each class of update required.
///
/// Per destination it keeps the tree's three arrays (16 B) and a row
/// pointer (8 B). The children of u are the heads of the out_links(u)
/// entries l with parent_link[head(l)] == l, found at O(degree).
///
/// Costs are read per origin: row(u)[i] is the cost of out_links(u)[i], the
/// layout of a routing update, which reports every out-link of its origin
/// in that order. A standalone instance owns its rows and changes one link
/// at a time through set_cost. A resident instance owns none: it reads each
/// origin's row from the routing update its PSN last accepted from that
/// origin, and adopt_row switches an origin to a newer update.
class IncrementalSpf {
 public:
  /// A standalone instance over id-indexed `costs`, with a scratch of its
  /// own.
  IncrementalSpf(const net::Topology& topo, net::NodeId root,
                 const LinkCosts& costs);
  /// A standalone instance borrowing `scratch`, which must be sized for
  /// `topo`, outlive this instance, and not be used by a pass running at the
  /// same time.
  IncrementalSpf(const net::Topology& topo, net::NodeId root,
                 const LinkCosts& costs, SpfScratch& scratch);
  /// A resident instance reading origin u's costs from rows[u] (one entry
  /// per out_links(u) link). The caller keeps every row alive and unchanged
  /// until adopt_row replaces it; `scratch` as above.
  IncrementalSpf(const net::Topology& topo, net::NodeId root,
                 std::span<const double* const> rows, SpfScratch& scratch);

  [[nodiscard]] const SpfTree& tree() const { return tree_; }
  /// A copy of the cost map, indexed by LinkId.
  [[nodiscard]] LinkCosts costs() const;

  /// Applies one link-cost change and updates the tree (standalone
  /// instances only).
  void set_cost(net::LinkId link, double new_cost);

  /// Switches `origin` to `row` (resident instances only), applying its
  /// entries in out_links(origin) order exactly as that many set_cost calls
  /// would: the same passes and the same counters. `row` must stay alive
  /// and unchanged until the origin's next adopt_row.
  void adopt_row(net::NodeId origin, const double* row);

  /// Full Dijkstra recomputations (one, at construction).
  [[nodiscard]] long full_recomputes() const { return full_; }
  /// Updates that required no distance work at all (cost increase on a
  /// non-tree link — the paper's example).
  [[nodiscard]] long skipped_updates() const { return skipped_; }
  /// Updates handled by a localized pass.
  [[nodiscard]] long incremental_updates() const { return incremental_; }
  /// Total nodes whose distance was recomputed across incremental passes.
  [[nodiscard]] long nodes_touched() const { return nodes_touched_; }
  /// Cumulative count of destinations whose first hop changed across all
  /// updates — the stability layer's route-change metric. Monotone;
  /// callers diff before/after a batch of set_cost calls.
  [[nodiscard]] long first_hop_changes() const { return first_hop_changes_; }

 private:
  void own_rows(const LinkCosts& costs);
  void init(net::NodeId root);
  void change_cost(net::LinkId link, double& slot, double new_cost);
  void decrease_pass(net::LinkId link, double new_cost);
  void increase_pass(net::LinkId link);
  void repair_structure(net::NodeId head, bool decrease);

  const net::Topology* topo_;
  /// rows_[u]: origin u's out-link costs, in out_links(u) order.
  std::vector<const double*> rows_;
  /// A standalone instance's rows, back to back in node order (empty for a
  /// resident instance). A move keeps the buffer, so rows_ stays valid.
  std::vector<double> owned_rows_;
  SpfTree tree_;
  /// Set only for an instance built without a borrowed scratch; scratch_
  /// points here or at the borrowed one. Heap-held so a moved instance
  /// keeps a valid pointer.
  std::unique_ptr<SpfScratch> owned_scratch_;
  SpfScratch* scratch_;
  long full_ = 0;
  long skipped_ = 0;
  long incremental_ = 0;
  long nodes_touched_ = 0;
  long first_hop_changes_ = 0;
};

/// Hop counts of minimum-hop paths between every pair of nodes, row-major
/// in one allocation of 2 B per pair. Used for the "Internode Minimum
/// Path" row of Table 1.
struct MinHopTable {
  /// The entry of a pair with no path between them.
  static constexpr std::uint16_t kUnreachable = 0xFFFF;
  std::size_t nodes = 0;
  std::vector<std::uint16_t> hops;

  [[nodiscard]] std::uint16_t at(net::NodeId src, net::NodeId dst) const {
    return hops[src * nodes + dst];
  }
};

/// The min-hop table of `topo` (one BFS per source). Throws
/// std::invalid_argument for a topology of more than kUnreachable nodes,
/// whose longest path (nodes - 1 hops) could reach the sentinel.
[[nodiscard]] MinHopTable min_hop_lengths(const net::Topology& topo);

}  // namespace arpanet::routing
