#include "src/routing/spf.h"

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/builders/registry.h"
#include "src/routing/routing_table.h"
#include "src/util/rng.h"

namespace arpanet::routing {
namespace {

using net::LineType;
using net::Topology;

Topology diamond() {
  // a -> b -> d and a -> c -> d.
  Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto d = t.add_node("d");
  t.add_duplex(a, b, LineType::kTerrestrial56);  // links 0,1
  t.add_duplex(a, c, LineType::kTerrestrial56);  // links 2,3
  t.add_duplex(b, d, LineType::kTerrestrial56);  // links 4,5
  t.add_duplex(c, d, LineType::kTerrestrial56);  // links 6,7
  return t;
}

TEST(SpfTest, ShortestPathOnDiamond) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[0] = 5.0;  // a->b expensive: route to d must go a->c->d
  const SpfTree tree = Spf::compute(t, 0, costs);
  EXPECT_DOUBLE_EQ(tree.dist[3], 2.0);
  EXPECT_EQ(tree.first_hop[3], 2u);  // a->c
  EXPECT_EQ(hop_count(t, tree, 3), 2);
}

TEST(SpfTest, RootFields) {
  const Topology t = diamond();
  const LinkCosts costs(t.link_count(), 1.0);
  const SpfTree tree = Spf::compute(t, 2, costs);
  EXPECT_EQ(tree.root, 2u);
  EXPECT_DOUBLE_EQ(tree.dist[2], 0.0);
  EXPECT_EQ(tree.parent_link[2], net::kInvalidLink);
  EXPECT_EQ(hop_count(t, tree, 2), 0);
}

TEST(SpfTest, TieBreaksByLowestLinkId) {
  const Topology t = diamond();
  const LinkCosts costs(t.link_count(), 1.0);
  const SpfTree tree = Spf::compute(t, 0, costs);
  // Both a->b->d and a->c->d cost 2; canonical parent of d is the
  // lower-id in-link (b->d is link 4, c->d is link 6).
  EXPECT_DOUBLE_EQ(tree.dist[3], 2.0);
  EXPECT_EQ(tree.parent_link[3], 4u);
  EXPECT_EQ(tree.first_hop[3], 0u);
}

TEST(SpfTest, RejectsNonPositiveCosts) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[3] = 0.0;
  EXPECT_THROW((void)Spf::compute(t, 0, costs), std::invalid_argument);
  costs[3] = -1.0;
  EXPECT_THROW((void)Spf::compute(t, 0, costs), std::invalid_argument);
}

TEST(SpfTest, RejectsWrongCostVectorSize) {
  const Topology t = diamond();
  const LinkCosts costs(3, 1.0);
  EXPECT_THROW((void)Spf::compute(t, 0, costs), std::invalid_argument);
}

TEST(SpfTest, HopsCountTreeEdges) {
  const Topology t = net::build_topology("ring:nodes=6");
  const LinkCosts costs(t.link_count(), 1.0);
  const SpfTree tree = Spf::compute(t, 0, costs);
  EXPECT_EQ(hop_count(t, tree, 3), 3);  // opposite side of a 6-ring
  EXPECT_EQ(hop_count(t, tree, 1), 1);
  EXPECT_EQ(hop_count(t, tree, 5), 1);
}

TEST(SpfTest, UsesLink) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[0] = 5.0;
  const SpfTree tree = Spf::compute(t, 0, costs);
  EXPECT_TRUE(tree.uses_link(t, 2));   // a->c in tree
  EXPECT_FALSE(tree.uses_link(t, 0));  // a->b not in tree
}

// ---- incremental SPF ----

TEST(IncrementalSpfTest, SkipsIncreaseOnNonTreeLink) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[0] = 5.0;  // a->b not in tree from a
  IncrementalSpf inc{t, 0, costs};
  const long before = inc.skipped_updates();
  inc.set_cost(0, 6.0);  // increase on non-tree link: no work
  EXPECT_EQ(inc.skipped_updates(), before + 1);
  EXPECT_DOUBLE_EQ(inc.tree().dist[3], 2.0);
}

TEST(IncrementalSpfTest, AppliesDecrease) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[0] = 5.0;
  IncrementalSpf inc{t, 0, costs};
  inc.set_cost(0, 0.5);  // now a->b->d is cheaper
  EXPECT_DOUBLE_EQ(inc.tree().dist[1], 0.5);
  EXPECT_DOUBLE_EQ(inc.tree().dist[3], 1.5);
  EXPECT_EQ(inc.tree().first_hop[3], 0u);
}

TEST(IncrementalSpfTest, AppliesIncreaseOnTreeLink) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  IncrementalSpf inc{t, 0, costs};
  inc.set_cost(0, 10.0);  // a->b was (tied) in tree; push all through c
  EXPECT_DOUBLE_EQ(inc.tree().dist[1], 3.0);  // a->c->d->b
  EXPECT_DOUBLE_EQ(inc.tree().dist[3], 2.0);
  EXPECT_EQ(inc.tree().first_hop[1], 2u);
}

TEST(IncrementalSpfTest, NoopOnEqualCost) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  IncrementalSpf inc{t, 0, costs};
  inc.set_cost(0, 1.0);
  EXPECT_EQ(inc.skipped_updates(), 0);
  EXPECT_EQ(inc.incremental_updates(), 0);
}

/// Property: after any stream of random cost changes, the incremental tree
/// is identical to a full recompute — distances, parents, first hops and
/// hop counts.
TEST(IncrementalSpfTest, MatchesFullRecomputeOnRandomGraphs) {
  util::Rng rng{2024};
  for (int trial = 0; trial < 20; ++trial) {
    const Topology t = net::build_topology(
        "random:nodes=16,extra=12,seed=" + std::to_string(2024 + trial));
    LinkCosts costs(t.link_count());
    for (double& c : costs) c = 1.0 + rng.uniform_index(5);
    IncrementalSpf inc{t, 0, costs};
    for (int step = 0; step < 60; ++step) {
      const auto link = static_cast<net::LinkId>(
          rng.uniform_index(t.link_count()));
      const double new_cost = 1.0 + static_cast<double>(rng.uniform_index(5));
      inc.set_cost(link, new_cost);
      costs[link] = new_cost;

      const SpfTree full = Spf::compute(t, 0, costs);
      for (net::NodeId v = 0; v < t.node_count(); ++v) {
        ASSERT_DOUBLE_EQ(inc.tree().dist[v], full.dist[v])
            << "trial " << trial << " step " << step << " node " << v;
        ASSERT_EQ(inc.tree().parent_link[v], full.parent_link[v]);
        ASSERT_EQ(inc.tree().first_hop[v], full.first_hop[v]);
        ASSERT_EQ(hop_count(t, inc.tree(), v), hop_count(t, full, v));
      }
    }
    EXPECT_GT(inc.skipped_updates() + inc.incremental_updates(), 0);
  }
}

/// Nodes whose tree path from the root passes through `head` (head
/// included): the subtree an increase on head's parent link resets.
long subtree_size(const Topology& t, const SpfTree& tree, net::NodeId head) {
  long size = 0;
  for (net::NodeId v = 0; v < t.node_count(); ++v) {
    for (net::NodeId u = v;;) {
      if (u == head) {
        ++size;
        break;
      }
      const net::LinkId pl = tree.parent_link[u];
      if (pl == net::kInvalidLink) break;
      u = t.link(pl).from;
    }
  }
  return size;
}

/// Drives a random cost stream with uniform starting costs and two cost
/// levels, so equal-cost ties are everywhere, and checks every update
/// against consecutive full recomputes: the tree field by field, the
/// first-hop change count, and the work count (an increase resets exactly
/// the old subtree below the link's head; a decrease lowers exactly the
/// nodes whose distance fell).
void check_against_full_recompute(const Topology& t, net::NodeId root,
                                  int steps, std::uint64_t seed) {
  util::Rng rng{seed};
  LinkCosts costs(t.link_count(), 1.0);
  IncrementalSpf inc{t, root, costs};
  SpfTree prev = Spf::compute(t, root, costs);
  for (int step = 0; step < steps; ++step) {
    const auto link =
        static_cast<net::LinkId>(rng.uniform_index(t.link_count()));
    const double old_cost = costs[link];
    const double new_cost = 1.0 + static_cast<double>(rng.uniform_index(2));
    const long touched_before = inc.nodes_touched();
    const long changes_before = inc.first_hop_changes();
    const long skipped_before = inc.skipped_updates();
    inc.set_cost(link, new_cost);
    costs[link] = new_cost;

    const SpfTree full = Spf::compute(t, root, costs);
    SCOPED_TRACE("root " + std::to_string(root) + " step " +
                 std::to_string(step) + " link " + std::to_string(link));
    long expected_changes = 0;
    long lowered = 0;
    for (net::NodeId v = 0; v < t.node_count(); ++v) {
      ASSERT_EQ(inc.tree().dist[v], full.dist[v]) << "node " << v;
      ASSERT_EQ(inc.tree().parent_link[v], full.parent_link[v]) << "node " << v;
      ASSERT_EQ(inc.tree().first_hop[v], full.first_hop[v]) << "node " << v;
      ASSERT_EQ(hop_count(t, inc.tree(), v), hop_count(t, full, v))
          << "node " << v;
      if (full.first_hop[v] != prev.first_hop[v]) ++expected_changes;
      if (full.dist[v] < prev.dist[v]) ++lowered;
    }
    ASSERT_EQ(inc.first_hop_changes() - changes_before, expected_changes);
    const long touched = inc.nodes_touched() - touched_before;
    if (new_cost < old_cost) {
      ASSERT_EQ(touched, lowered);
    } else if (new_cost > old_cost && inc.skipped_updates() == skipped_before) {
      ASSERT_EQ(touched, subtree_size(t, prev, t.link(link).to));
    } else {
      ASSERT_EQ(touched, 0);
    }
    prev = full;
  }
  EXPECT_GT(inc.incremental_updates(), 0);
  EXPECT_GT(inc.first_hop_changes(), 0);
}

TEST(IncrementalSpfTest, MatchesFullRecomputeOnLeoGridWithTies) {
  const Topology t = net::TopologyBuilder::registry().build(
      net::GraphSpec::parse("leo-grid:nodes=64"));
  for (const net::NodeId root : {0u, 21u, 63u}) {
    check_against_full_recompute(t, root, 400, 100 + root);
  }
}

TEST(IncrementalSpfTest, MatchesFullRecomputeOnArpanet87WithTies) {
  const Topology t = net::build_topology("arpanet87");
  for (const net::NodeId root : {0u, 17u, 46u}) {
    check_against_full_recompute(t, root, 400, 200 + root);
  }
}

/// Drives a resident instance, which adopts whole per-origin rows as a PSN
/// adopts routing updates, next to a standalone instance fed the same
/// reports one link at a time through set_cost, and checks after every
/// update that the two agree: the tree field by field, all five counters
/// and the cost map. Each row mixes unchanged entries, decreases that tie
/// the link's head onto a second shortest path, and random moves over a
/// few integer levels (so ties are everywhere and sums stay exact).
void check_resident_matches_standalone(const Topology& t, net::NodeId root,
                                       int updates, std::uint64_t seed) {
  util::Rng rng{seed};
  const auto random_cost = [&rng] {
    return 1.0 + static_cast<double>(rng.uniform_index(4));
  };
  LinkCosts initial(t.link_count());
  for (double& c : initial) c = random_cost();
  // The standalone instance is moved by the vector's regrowth before it
  // is used: its owned rows must survive the move.
  std::vector<IncrementalSpf> standalone;
  standalone.emplace_back(t, root, initial);
  standalone.emplace_back(t, root, initial);
  IncrementalSpf& reference = standalone.front();

  std::vector<std::vector<double>> rows(t.node_count());
  std::vector<const double*> row_ptrs(t.node_count());
  for (net::NodeId u = 0; u < t.node_count(); ++u) {
    for (const net::LinkId l : t.out_links(u)) rows[u].push_back(initial[l]);
    row_ptrs[u] = rows[u].data();
  }
  SpfScratch scratch{t};
  IncrementalSpf resident{t, root, row_ptrs, scratch};
  EXPECT_THROW(resident.set_cost(0, 1.0), std::logic_error);

  long unchanged = 0;
  long ties = 0;
  for (int step = 0; step < updates; ++step) {
    const auto origin =
        static_cast<net::NodeId>(rng.uniform_index(t.node_count()));
    const std::span<const net::LinkId> lids = t.out_links(origin);
    std::vector<double> next = rows[origin];
    for (std::size_t i = 0; i < next.size(); ++i) {
      const std::uint64_t kind = rng.uniform_index(3);
      const double tie = reference.tree().dist[t.link(lids[i]).to] -
                         reference.tree().dist[origin];
      if (kind == 0) {
        ++unchanged;
      } else if (kind == 1 && tie > 0.0 && tie < next[i]) {
        next[i] = tie;
        ++ties;
      } else {
        next[i] = random_cost();
      }
    }
    resident.adopt_row(origin, next.data());
    for (std::size_t i = 0; i < next.size(); ++i) {
      reference.set_cost(lids[i], next[i]);
    }
    // The resident instance now reads `next`; the old row may go.
    rows[origin] = std::move(next);

    SCOPED_TRACE("root " + std::to_string(root) + " update " +
                 std::to_string(step) + " origin " + std::to_string(origin));
    ASSERT_EQ(resident.tree().dist, reference.tree().dist);
    ASSERT_EQ(resident.tree().parent_link, reference.tree().parent_link);
    ASSERT_EQ(resident.tree().first_hop, reference.tree().first_hop);
    ASSERT_EQ(resident.full_recomputes(), reference.full_recomputes());
    ASSERT_EQ(resident.skipped_updates(), reference.skipped_updates());
    ASSERT_EQ(resident.incremental_updates(), reference.incremental_updates());
    ASSERT_EQ(resident.nodes_touched(), reference.nodes_touched());
    ASSERT_EQ(resident.first_hop_changes(), reference.first_hop_changes());
    ASSERT_EQ(resident.costs(), reference.costs());
  }
  EXPECT_GT(unchanged, updates / 2);
  EXPECT_GT(ties, updates / 10);
  EXPECT_GT(resident.skipped_updates(), 0);
  EXPECT_GT(resident.incremental_updates(), updates / 2);
  EXPECT_GT(resident.first_hop_changes(), 0);
}

TEST(IncrementalSpfTest, ResidentRowsMatchStandaloneSetCost) {
  const Topology leo = net::TopologyBuilder::registry().build(
      net::GraphSpec::parse("leo-grid:nodes=64"));
  for (const net::NodeId root : {0u, 21u, 63u}) {
    check_resident_matches_standalone(leo, root, 300, 300 + root);
  }
  const Topology arpa = net::build_topology("arpanet87");
  for (const net::NodeId root : {0u, 17u, 46u}) {
    check_resident_matches_standalone(arpa, root, 300, 400 + root);
  }
}

/// A resident instance's first_hop_changes() delta over each adopted row
/// that moves one link's cost is exactly the number of destinations whose
/// first hop differs between the trees before and after it: the push-down
/// counts every changed destination once, and stops nowhere a change is
/// still to come. (A row moving several links counts each link's change in
/// turn, as that many set_cost calls would; ResidentRowsMatchStandaloneSetCost
/// pins that.)
TEST(IncrementalSpfTest, FirstHopChangesCountTheTreeDiff) {
  const Topology leo = net::TopologyBuilder::registry().build(
      net::GraphSpec::parse("leo-grid:nodes=64"));
  const Topology arpa = net::build_topology("arpanet87");
  util::Rng rng{3030};
  for (const Topology* t : {&leo, &arpa}) {
    for (const net::NodeId root : {0u, 17u, 46u}) {
      std::vector<std::vector<double>> rows(t->node_count());
      std::vector<const double*> row_ptrs(t->node_count());
      for (net::NodeId u = 0; u < t->node_count(); ++u) {
        rows[u].assign(t->out_links(u).size(), 1.0);
        row_ptrs[u] = rows[u].data();
      }
      SpfScratch scratch{*t};
      IncrementalSpf spf{*t, root, row_ptrs, scratch};
      long changed_total = 0;
      for (int step = 0; step < 400; ++step) {
        const auto origin =
            static_cast<net::NodeId>(rng.uniform_index(t->node_count()));
        std::vector<double> next = rows[origin];
        next[rng.uniform_index(next.size())] =
            1.0 + static_cast<double>(rng.uniform_index(3));
        const std::vector<net::LinkId> before = spf.tree().first_hop;
        const long changes_before = spf.first_hop_changes();
        spf.adopt_row(origin, next.data());
        rows[origin] = std::move(next);
        long changed = 0;
        for (net::NodeId v = 0; v < t->node_count(); ++v) {
          if (spf.tree().first_hop[v] != before[v]) ++changed;
        }
        ASSERT_EQ(spf.first_hop_changes() - changes_before, changed)
            << "root " << root << " step " << step << " origin " << origin;
        changed_total += changed;
      }
      EXPECT_GT(changed_total, 0) << "root " << root;
    }
  }
}

TEST(IncrementalSpfTest, MatchesFullRecomputeWithUnreachableNodes) {
  // Two components: the root's diamond and a detached pair the tree never
  // reaches. Updates on either side must leave the pair unrouted.
  Topology t = diamond();
  const auto x = t.add_node("x");
  const auto y = t.add_node("y");
  t.add_duplex(x, y, LineType::kTerrestrial56);
  check_against_full_recompute(t, 0, 200, 300);
}

TEST(IncrementalSpfTest, SharedScratchMatchesFullRecompute) {
  // Four PSN-like instances over one topology borrow one scratch, each with
  // its own cost map. Changes land on a random instance at a time, so every
  // pass starts from whatever the previous instance's pass left behind.
  const Topology t = net::TopologyBuilder::registry().build(
      net::GraphSpec::parse("leo-grid:nodes=64"));
  SpfScratch scratch{t};
  const std::vector<net::NodeId> roots{0, 21, 42, 63};
  util::Rng rng{4242};
  // Three cost levels: ties everywhere, and a third of all changes lower.
  const auto random_cost = [&rng] {
    return 1.0 + static_cast<double>(rng.uniform_index(3));
  };
  std::vector<LinkCosts> costs(roots.size(), LinkCosts(t.link_count()));
  std::vector<IncrementalSpf> spfs;
  spfs.reserve(roots.size());
  for (std::size_t r = 0; r < roots.size(); ++r) {
    for (double& c : costs[r]) c = random_cost();
    spfs.emplace_back(t, roots[r], costs[r], scratch);
  }
  long increases = 0;
  long decreases = 0;
  for (int step = 0; step < 600; ++step) {
    const std::size_t r = rng.uniform_index(roots.size());
    const auto link =
        static_cast<net::LinkId>(rng.uniform_index(t.link_count()));
    const double new_cost = random_cost();
    if (new_cost > costs[r][link]) ++increases;
    if (new_cost < costs[r][link]) ++decreases;
    spfs[r].set_cost(link, new_cost);
    costs[r][link] = new_cost;
    for (std::size_t k = 0; k < roots.size(); ++k) {
      const SpfTree full = Spf::compute(t, roots[k], costs[k]);
      SCOPED_TRACE("step " + std::to_string(step) + " root " +
                   std::to_string(roots[k]));
      ASSERT_EQ(spfs[k].tree().dist, full.dist);
      ASSERT_EQ(spfs[k].tree().parent_link, full.parent_link);
      ASSERT_EQ(spfs[k].tree().first_hop, full.first_hop);
    }
  }
  EXPECT_GT(increases, 150);
  EXPECT_GT(decreases, 150);
  for (const IncrementalSpf& spf : spfs) EXPECT_GT(spf.incremental_updates(), 20);
  for (const std::uint8_t mark : scratch.in_nodes) {
    ASSERT_EQ(mark, 0) << "a pass must leave the shared marks clear";
  }
}

TEST(IncrementalSpfDeathTest, BorrowedScratchMustFitTheTopology) {
  const Topology t = diamond();
  const Topology ring = net::build_topology("ring:nodes=6");
  SpfScratch scratch{ring};
  EXPECT_DEATH((void)IncrementalSpf(t, 0, LinkCosts(t.link_count(), 1.0), scratch),
               "SPF scratch sized for 6 nodes");
}

TEST(IncrementalSpfTest, DecreaseCreatingOnlyATieReparents) {
  // d is reached at cost 2 via a->c->d (link 6); b->d (link 4) costs 2, so
  // the path through b costs 3. Lowering link 4 to 1 ties the two paths:
  // no distance moves, but the lower-id link 4 becomes d's parent and d's
  // first hop swings from a->c (link 2) to a->b (link 0).
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[4] = 2.0;
  IncrementalSpf inc{t, 0, costs};
  ASSERT_EQ(inc.tree().parent_link[3], 6u);
  ASSERT_EQ(inc.tree().first_hop[3], 2u);

  inc.set_cost(4, 1.0);
  EXPECT_EQ(inc.incremental_updates(), 1);
  EXPECT_EQ(inc.nodes_touched(), 0);
  EXPECT_DOUBLE_EQ(inc.tree().dist[3], 2.0);
  EXPECT_EQ(inc.tree().parent_link[3], 4u);
  EXPECT_EQ(inc.tree().first_hop[3], 0u);
  EXPECT_EQ(inc.first_hop_changes(), 1);
}

TEST(IncrementalSpfTest, IncreaseOnTiedTreeLinkMovesTheSubtree) {
  // Diamond plus a tail d-e. With unit costs d ties between b->d (link 4,
  // the canonical parent) and c->d (link 6). Raising link 4 resets d's
  // subtree {d, e}; both keep their distances but now hang below c, so both
  // first hops change.
  Topology t = diamond();
  const auto e = t.add_node("e");
  t.add_duplex(3, e, LineType::kTerrestrial56);  // links 8,9
  IncrementalSpf inc{t, 0, LinkCosts(t.link_count(), 1.0)};
  ASSERT_EQ(inc.tree().parent_link[3], 4u);
  ASSERT_EQ(inc.tree().first_hop[e], 0u);

  inc.set_cost(4, 5.0);
  EXPECT_EQ(inc.incremental_updates(), 1);
  EXPECT_EQ(inc.nodes_touched(), 2);
  EXPECT_DOUBLE_EQ(inc.tree().dist[3], 2.0);
  EXPECT_DOUBLE_EQ(inc.tree().dist[e], 3.0);
  EXPECT_EQ(inc.tree().parent_link[3], 6u);
  EXPECT_EQ(inc.tree().parent_link[e], 8u);
  EXPECT_EQ(inc.tree().first_hop[3], 2u);
  EXPECT_EQ(inc.tree().first_hop[e], 2u);
  EXPECT_EQ(hop_count(t, inc.tree(), e), 3);
  EXPECT_EQ(inc.first_hop_changes(), 2);
}

// Root r reaches w over r->m->w at cost 2 and x over r->x at cost 3; x->w
// costs 1 and w->x 5. `x_w_first` puts the x-w trunk's links before the
// r-m-w path's, so x->w has the lower id.
Topology tie_at_out_neighbour(bool x_w_first) {
  Topology t;
  const auto r = t.add_node("r");
  const auto x = t.add_node("x");
  const auto m = t.add_node("m");
  const auto w = t.add_node("w");
  if (x_w_first) t.add_duplex(x, w, LineType::kTerrestrial56);
  t.add_duplex(r, x, LineType::kTerrestrial56);
  t.add_duplex(r, m, LineType::kTerrestrial56);
  t.add_duplex(m, w, LineType::kTerrestrial56);
  if (!x_w_first) t.add_duplex(x, w, LineType::kTerrestrial56);
  return t;
}

LinkCosts tie_costs(const Topology& t) {
  LinkCosts costs(t.link_count(), 1.0);
  costs[t.link_between(0, 1)] = 3.0;  // r->x
  costs[t.link_between(3, 1)] = 5.0;  // w->x
  return costs;
}

TEST(IncrementalSpfTest, DecreaseTieWithLowerIdReparentsAnOutNeighbour) {
  // Lowering r->x to 1 lowers only x; w keeps distance 2 but x->w now ties
  // with its parent m->w and has the lower id, so w moves under x and its
  // first hop swings from r->m to r->x.
  const Topology t = tie_at_out_neighbour(/*x_w_first=*/true);
  const net::LinkId r_x = t.link_between(0, 1);
  const net::LinkId x_w = t.link_between(1, 3);
  const net::LinkId m_w = t.link_between(2, 3);
  ASSERT_LT(x_w, m_w);
  IncrementalSpf inc{t, 0, tie_costs(t)};
  ASSERT_EQ(inc.tree().parent_link[3], m_w);
  ASSERT_EQ(inc.tree().first_hop[3], t.link_between(0, 2));

  inc.set_cost(r_x, 1.0);
  EXPECT_EQ(inc.nodes_touched(), 1) << "only x is lowered";
  EXPECT_DOUBLE_EQ(inc.tree().dist[3], 2.0);
  EXPECT_EQ(inc.tree().parent_link[3], x_w);
  EXPECT_EQ(inc.tree().first_hop[3], r_x);
  EXPECT_EQ(hop_count(t, inc.tree(), 3), 2);
  EXPECT_EQ(inc.first_hop_changes(), 1);
  const SpfTree full = Spf::compute(t, 0, inc.costs());
  EXPECT_EQ(inc.tree().parent_link, full.parent_link);
  EXPECT_EQ(inc.tree().first_hop, full.first_hop);
}

TEST(IncrementalSpfTest, DecreaseTieWithHigherIdLeavesAnOutNeighbour) {
  // The same tie, but x->w has the higher id: w stays under m.
  const Topology t = tie_at_out_neighbour(/*x_w_first=*/false);
  const net::LinkId x_w = t.link_between(1, 3);
  const net::LinkId m_w = t.link_between(2, 3);
  ASSERT_GT(x_w, m_w);
  IncrementalSpf inc{t, 0, tie_costs(t)};
  ASSERT_EQ(inc.tree().parent_link[3], m_w);

  inc.set_cost(t.link_between(0, 1), 1.0);
  EXPECT_EQ(inc.nodes_touched(), 1);
  EXPECT_DOUBLE_EQ(inc.tree().dist[3], 2.0);
  EXPECT_EQ(inc.tree().parent_link[3], m_w);
  EXPECT_EQ(inc.tree().first_hop[3], t.link_between(0, 2));
  EXPECT_EQ(inc.first_hop_changes(), 0);
  const SpfTree full = Spf::compute(t, 0, inc.costs());
  EXPECT_EQ(inc.tree().parent_link, full.parent_link);
}

// ---- min-hop lengths ----

TEST(MinHopTest, RingDistances) {
  const Topology t = net::build_topology("ring:nodes=8");
  const MinHopTable d = min_hop_lengths(t);
  EXPECT_EQ(d.at(0, 4), 4);
  EXPECT_EQ(d.at(0, 7), 1);
  EXPECT_EQ(d.at(3, 3), 0);
  EXPECT_EQ(d.at(2, 6), 4);
}

TEST(MinHopTest, UnreachablePairsReadTheSentinel) {
  Topology t = diamond();
  t.add_node("x");
  const MinHopTable d = min_hop_lengths(t);
  EXPECT_EQ(d.at(0, 3), 2);
  EXPECT_EQ(d.at(0, 4), MinHopTable::kUnreachable);
  EXPECT_EQ(d.at(4, 0), MinHopTable::kUnreachable);
  EXPECT_EQ(d.at(4, 4), 0);
}

TEST(MinHopTest, RejectsATopologyWhosePathsMayNotFit) {
  // 65,536 nodes could form a 65,535-hop path, which would read as the
  // sentinel: the table refuses before allocating its 8 GiB.
  Topology t;
  for (int i = 0; i <= MinHopTable::kUnreachable; ++i) {
    t.add_node("n" + std::to_string(i));
  }
  EXPECT_THROW((void)min_hop_lengths(t), std::invalid_argument);
}

// ---- path trace ----

/// One full SPF tree per node over a shared cost vector: the forwarding
/// state every PSN converges to once flooding quiesces.
std::vector<SpfTree> all_trees(const Topology& t, const LinkCosts& costs) {
  std::vector<SpfTree> trees;
  for (net::NodeId n = 0; n < t.node_count(); ++n) {
    trees.push_back(Spf::compute(t, n, costs));
  }
  return trees;
}

TEST(ForwardingTest, TraceFollowsShortestPath) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[0] = 5.0;
  const auto trees = all_trees(t, costs);
  const PathTrace trace =
      trace_path(t, 0, 3, [&](net::NodeId at, net::NodeId dst) {
        return trees[at].first_hop[dst];
      });
  EXPECT_TRUE(trace.reached);
  EXPECT_FALSE(trace.looped);
  EXPECT_EQ(trace.hops(), 2);
  EXPECT_EQ(trace.links[0], 2u);
}

TEST(ForwardingTest, DetectsLoopFromInconsistentTables) {
  const Topology t = diamond();
  const auto trees = all_trees(t, LinkCosts(t.link_count(), 1.0));
  // Sabotage: for destination d, a forwards to b and b back to a (link 1
  // is b->a).
  const PathTrace trace =
      trace_path(t, 0, 3, [&](net::NodeId at, net::NodeId dst) {
        if (dst == 3 && at == 0) return net::LinkId{0};
        if (dst == 3 && at == 1) return net::LinkId{1};
        return trees[at].first_hop[dst];
      });
  EXPECT_TRUE(trace.looped);
  EXPECT_FALSE(trace.reached);
}

TEST(ForwardingTest, ConsistentTablesNeverLoop) {
  util::Rng rng{555};
  const Topology t = net::build_topology("random:nodes=12,extra=8,seed=555");
  LinkCosts costs(t.link_count());
  for (double& c : costs) c = 1.0 + rng.uniform(0.0, 3.0);
  const auto trees = all_trees(t, costs);
  const auto next_hop = [&](net::NodeId at, net::NodeId dst) {
    return trees[at].first_hop[dst];
  };
  for (net::NodeId s = 0; s < t.node_count(); ++s) {
    for (net::NodeId d = 0; d < t.node_count(); ++d) {
      if (s == d) continue;
      const PathTrace trace = trace_path(t, s, d, next_hop);
      EXPECT_TRUE(trace.reached);
      EXPECT_FALSE(trace.looped);
      EXPECT_EQ(trace.hops(), hop_count(t, trees[s], d));
    }
  }
}

}  // namespace
}  // namespace arpanet::routing
