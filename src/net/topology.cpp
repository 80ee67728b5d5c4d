#include "src/net/topology.h"

#include <utility>

namespace arpanet::net {

Topology::Topology(const Topology& other)
    : node_names_{other.node_names_},
      links_{other.links_},
      name_index_{other.name_index_} {
  // The CSR cache is not copied: the copy rebuilds it on first access, which
  // avoids synchronizing with readers of `other`.
}

Topology& Topology::operator=(const Topology& other) {
  if (this == &other) return *this;
  node_names_ = other.node_names_;
  links_ = other.links_;
  name_index_ = other.name_index_;
  csr_valid_.store(false, std::memory_order_release);
  return *this;
}

Topology::Topology(Topology&& other) noexcept
    : node_names_{std::move(other.node_names_)},
      links_{std::move(other.links_)},
      name_index_{std::move(other.name_index_)},
      csr_start_{std::move(other.csr_start_)},
      csr_links_{std::move(other.csr_links_)},
      csr_to_{std::move(other.csr_to_)},
      csr_in_{std::move(other.csr_in_)},
      csr_pos_{std::move(other.csr_pos_)},
      csr_in_pos_{std::move(other.csr_in_pos_)},
      csr_valid_{other.csr_valid_.load(std::memory_order_relaxed)} {
  other.csr_valid_.store(false, std::memory_order_relaxed);
}

Topology& Topology::operator=(Topology&& other) noexcept {
  if (this == &other) return *this;
  node_names_ = std::move(other.node_names_);
  links_ = std::move(other.links_);
  name_index_ = std::move(other.name_index_);
  csr_start_ = std::move(other.csr_start_);
  csr_links_ = std::move(other.csr_links_);
  csr_to_ = std::move(other.csr_to_);
  csr_in_ = std::move(other.csr_in_);
  csr_pos_ = std::move(other.csr_pos_);
  csr_in_pos_ = std::move(other.csr_in_pos_);
  csr_valid_.store(other.csr_valid_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  other.csr_valid_.store(false, std::memory_order_relaxed);
  return *this;
}

void Topology::reserve(std::size_t nodes, std::size_t trunks) {
  node_names_.reserve(nodes);
  links_.reserve(2 * trunks);
  name_index_.reserve(nodes);
}

NodeId Topology::add_node(std::string name) {
  if (name_index_.contains(name)) {
    throw std::invalid_argument("duplicate node name: " + name);
  }
  const auto id = static_cast<NodeId>(node_names_.size());
  name_index_.emplace(name, id);
  node_names_.push_back(std::move(name));
  csr_valid_.store(false, std::memory_order_release);
  return id;
}

LinkId Topology::add_duplex(NodeId a, NodeId b, LineType type) {
  return add_duplex(a, b, type, info(type).default_prop_delay);
}

LinkId Topology::add_duplex(NodeId a, NodeId b, LineType type,
                            util::SimTime prop_delay) {
  if (a >= node_count() || b >= node_count()) {
    throw std::out_of_range("add_duplex: node id out of range");
  }
  if (a == b) throw std::invalid_argument("add_duplex: self-loop");
  if (prop_delay < util::SimTime::zero() || prop_delay > kMaxPropDelay) {
    throw std::invalid_argument(
        "add_duplex: propagation delay " + std::to_string(prop_delay.us()) +
        " us outside [0, " + std::to_string(kMaxPropDelay.us()) + "] us");
  }

  const auto fwd = static_cast<LinkId>(links_.size());
  const auto rev = static_cast<LinkId>(links_.size() + 1);
  const auto& ti = info(type);
  links_.push_back(Link{fwd, a, b, type, ti.rate, prop_delay, rev});
  links_.push_back(Link{rev, b, a, type, ti.rate, prop_delay, fwd});
  csr_valid_.store(false, std::memory_order_release);
  return fwd;
}

void Topology::rebuild_csr() const {
  const std::lock_guard<std::mutex> lock{csr_mu_};
  if (csr_valid_.load(std::memory_order_relaxed)) return;  // raced; done

  const std::size_t n = node_names_.size();
  const std::size_t m = links_.size();
  csr_start_.assign(n + 1, 0);
  for (const Link& l : links_) ++csr_start_[l.from + 1];
  for (std::size_t i = 0; i < n; ++i) csr_start_[i + 1] += csr_start_[i];

  csr_links_.resize(m);
  csr_to_.resize(m);
  csr_in_.resize(m);
  csr_pos_.resize(m);
  // Stable counting fill: links are appended in id order, so walking them in
  // id order reproduces each node's add_duplex insertion order — the same
  // per-node order the old vector-of-vectors kept, which keeps simulation
  // event order (and golden outputs) unchanged.
  std::vector<std::uint32_t> fill(csr_start_.begin(), csr_start_.end() - 1);
  for (const Link& l : links_) {
    const std::uint32_t slot = fill[l.from]++;
    csr_links_[slot] = l.id;
    csr_to_[slot] = l.to;
    csr_in_[slot] = l.reverse;
    csr_pos_[l.id] = slot - csr_start_[l.from];
  }
  csr_in_pos_.resize(m);
  for (std::size_t slot = 0; slot < m; ++slot) {
    csr_in_pos_[slot] = csr_pos_[csr_in_[slot]];
  }

  csr_valid_.store(true, std::memory_order_release);
}

NodeId Topology::node_by_name(std::string_view name) const {
  const auto it = name_index_.find(name);
  if (it == name_index_.end()) {
    throw std::out_of_range("no node named " + std::string(name));
  }
  return it->second;
}

LinkId Topology::link_between(NodeId a, NodeId b) const {
  const std::span<const NodeId> targets = out_targets(a);
  const std::span<const LinkId> links = out_links(a);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] == b) return links[i];
  }
  return kInvalidLink;
}

bool Topology::is_connected() const {
  if (node_count() == 0) return true;
  ensure_csr();
  std::vector<bool> seen(node_count(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    for (const NodeId m : out_targets(n)) {
      if (!seen[m]) {
        seen[m] = true;
        ++reached;
        stack.push_back(m);
      }
    }
  }
  return reached == node_count();
}

}  // namespace arpanet::net
