// Network topology: PSNs (nodes) and simplex links.
//
// Following the paper's terminology, a *link* is the simplex communication
// medium between two PSNs; a physical trunk is therefore modeled as a pair of
// simplex links, one per direction, each with its own queue, measured delay
// and reported cost. Topology is immutable structure; mutable routing state
// (costs, queue depths) is held outside it, indexed by LinkId.
//
// Storage is CSR (compressed sparse row): every node's out-links live in one
// contiguous slice of two parallel flat arrays — link ids and target nodes —
// so SPF, flooding and forwarding walk cache-linear memory instead of chasing
// per-node vectors. A third parallel array holds each out-link's reverse,
// which is the in-link from the same neighbor, so a node's in-links are a
// CSR slice too. The CSR index is a cache over the link list, rebuilt
// lazily (and thread-safely) after mutations; per-node out-link order is the
// insertion order of add_duplex, exactly as the old per-node vectors kept it.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/net/line_type.h"
#include "src/util/units.h"

namespace arpanet::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr LinkId kInvalidLink = static_cast<LinkId>(-1);
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// One simplex link.
struct Link {
  LinkId id = kInvalidLink;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  LineType type = LineType::kTerrestrial56;
  util::DataRate rate;
  util::SimTime prop_delay;
  /// The simplex link carrying the opposite direction of the same trunk.
  LinkId reverse = kInvalidLink;
};

/// Immutable graph of PSNs and simplex links.
///
/// Built incrementally with add_node / add_duplex, then used read-only by the
/// routing, simulation and analysis layers. Node and link ids are dense
/// indices, so per-node/per-link state elsewhere is a plain vector.
class Topology {
 public:
  Topology() = default;
  Topology(const Topology& other);
  Topology& operator=(const Topology& other);
  Topology(Topology&& other) noexcept;
  Topology& operator=(Topology&& other) noexcept;
  ~Topology() = default;

  /// Pre-sizes the node and link storage (generators know both counts up
  /// front; 100k-node builds should not pay re-allocation churn).
  void reserve(std::size_t nodes, std::size_t trunks);

  /// Adds a PSN. Names must be unique; used in reports and for lookups.
  NodeId add_node(std::string name);

  /// Largest propagation delay a trunk may have. The longest any builder
  /// emits is 130 ms (satellite trunks); the bound keeps a hostile delay
  /// read from a topology file from overflowing SimTime when an arrival is
  /// scheduled.
  static constexpr util::SimTime kMaxPropDelay = util::SimTime::from_sec(10);

  /// Adds a full-duplex trunk as two simplex links with identical
  /// parameters. Rate and propagation delay default from the line type;
  /// prop_delay may be overridden (e.g. long terrestrial trunks). Throws
  /// std::invalid_argument on a delay outside [0, kMaxPropDelay].
  /// Returns the id of the a->b simplex link (its reverse is retrievable
  /// via Link::reverse).
  LinkId add_duplex(NodeId a, NodeId b, LineType type);
  LinkId add_duplex(NodeId a, NodeId b, LineType type, util::SimTime prop_delay);

  [[nodiscard]] std::size_t node_count() const { return node_names_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  /// Number of full-duplex trunks (= link_count()/2).
  [[nodiscard]] std::size_t trunk_count() const { return links_.size() / 2; }

  [[nodiscard]] const Link& link(LinkId id) const { return links_.at(id); }
  [[nodiscard]] std::span<const Link> links() const { return links_; }

  [[nodiscard]] std::string_view node_name(NodeId id) const { return node_names_.at(id); }
  /// Throws std::out_of_range if no node has this name.
  [[nodiscard]] NodeId node_by_name(std::string_view name) const;

  /// The a->b simplex link of the first trunk joining a and b (in a's
  /// out-link order), or kInvalidLink when they share no trunk.
  [[nodiscard]] LinkId link_between(NodeId a, NodeId b) const;

  // ARPALINT-HOTPATH-BEGIN
  /// Outgoing simplex links of a node: one contiguous CSR slice, in
  /// add_duplex insertion order.
  [[nodiscard]] std::span<const LinkId> out_links(NodeId node) const {
    ensure_csr();
    check_node(node);
    return {csr_links_.data() + csr_start_[node],
            csr_links_.data() + csr_start_[node + 1]};
  }

  /// Target nodes of the same slice, parallel to out_links(node): the SPF
  /// inner loop reads the neighbor id without touching the 48-byte Link.
  [[nodiscard]] std::span<const NodeId> out_targets(NodeId node) const {
    ensure_csr();
    check_node(node);
    return {csr_to_.data() + csr_start_[node],
            csr_to_.data() + csr_start_[node + 1]};
  }

  /// In-links of a node, parallel to out_targets(node): in_links(v)[i] is
  /// the link out_targets(v)[i] -> v, the reverse of out_links(v)[i]. Every
  /// link comes from add_duplex, so in-links and out-links pair up exactly.
  [[nodiscard]] std::span<const LinkId> in_links(NodeId node) const {
    ensure_csr();
    check_node(node);
    return {csr_in_.data() + csr_start_[node],
            csr_in_.data() + csr_start_[node + 1]};
  }

  /// Positions parallel to in_links(node): in_pos(v)[i] is
  /// out_pos(in_links(v)[i]), the slot of that in-link within its own
  /// from-node's out_links slice. Routing state held per origin in
  /// out_links order reads an in-link's entry without a per-link lookup.
  [[nodiscard]] std::span<const std::uint32_t> in_pos(NodeId node) const {
    ensure_csr();
    check_node(node);
    return {csr_in_pos_.data() + csr_start_[node],
            csr_in_pos_.data() + csr_start_[node + 1]};
  }

  /// Position of `link` inside its from-node's out_links slice. Per-out-link
  /// state held in out_links order (e.g. a PSN's output queues) is then an
  /// O(1) lookup instead of a linear scan.
  [[nodiscard]] std::uint32_t out_pos(LinkId link) const {
    ensure_csr();
    if (link >= csr_pos_.size()) {
      throw std::out_of_range("out_pos: link id out of range");
    }
    return csr_pos_[link];
  }
  // ARPALINT-HOTPATH-END

  /// Builds the CSR index now (it is otherwise built on first access).
  /// Generators call this before handing a topology to concurrent readers.
  void finalize() const { ensure_csr(); }

  /// True iff every node can reach every other node over the links.
  [[nodiscard]] bool is_connected() const;

 private:
  void check_node(NodeId node) const {
    if (node >= node_names_.size()) {
      throw std::out_of_range("node id out of range");
    }
  }

  /// Acquire-load fast path; rebuilds under csr_mu_ when the cache is stale.
  void ensure_csr() const {
    if (!csr_valid_.load(std::memory_order_acquire)) rebuild_csr();
  }
  void rebuild_csr() const;

  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> node_names_;
  std::vector<Link> links_;
  std::unordered_map<std::string, NodeId, StringHash, std::equal_to<>>
      name_index_;

  // CSR cache over links_: node n's out-links are csr_links_[csr_start_[n]
  // .. csr_start_[n+1]), csr_to_ holds the matching targets, csr_in_ their
  // reverse links, csr_pos_[l] the slot of link l within its from-node's
  // slice, csr_in_pos_ the csr_pos_ of each csr_in_ entry. Mutable because
  // it is a lazily-(re)built view of the link list; guarded for concurrent
  // first access from sweep workers sharing one const Topology.
  mutable std::vector<std::uint32_t> csr_start_;
  mutable std::vector<LinkId> csr_links_;
  mutable std::vector<NodeId> csr_to_;
  mutable std::vector<LinkId> csr_in_;
  mutable std::vector<std::uint32_t> csr_pos_;
  mutable std::vector<std::uint32_t> csr_in_pos_;
  mutable std::atomic<bool> csr_valid_{false};
  mutable std::mutex csr_mu_;
};

}  // namespace arpanet::net
