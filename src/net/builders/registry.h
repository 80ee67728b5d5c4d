// TopologyBuilder: the string-keyed registry of topology families.
//
// Every generator — the classic paper networks (arpanet87, two-region,
// milnet), the small synthetic shapes (ring, grid, random, clustered) and the
// internet-scale families this registry introduced (hier-as, waxman, ba,
// fat-tree, leo-grid) — is reachable through one front door:
//
//   net::Topology topo = net::TopologyBuilder::registry().build(
//       net::GraphSpec{"ba"}.with_nodes(10'000).with_seed(7).with_param("m", 2));
//
// build() validates the spec against the family's declared parameter table
// (unknown family, unknown parameter, out-of-range value, unsupported node
// count) and throws std::invalid_argument with an actionable message — specs
// often come straight from CLI strings or sweep axes, so a bad one must be
// reportable, not fatal. The returned topology is finalized (CSR index
// built), connected, and byte-identical for the same spec on every run.
//
// build_topology() is the same front door for a spec string:
//
//   net::Topology topo = net::build_topology("two-region:per_region=6");
//
// The paper's networks carry no side handles: callers look nodes up by name
// (arpanet87's MIT and UCLA) and trunks with Topology::link_between
// (two-region's links A = A0-B0 and B = A{k/2}-B{k/2}).

#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "src/net/graph_spec.h"
#include "src/net/topology.h"

namespace arpanet::net {

class TopologyBuilder {
 public:
  using BuildFn = Topology (*)(const GraphSpec&);
  /// Node count a spec's shape parameters fix on their own, 0 if they
  /// leave it to `nodes`.
  using ShapeNodesFn = std::size_t (*)(const GraphSpec&);

  /// One declared numeric parameter of a family: its accepted closed range
  /// and the value used when the spec does not set it.
  struct ParamInfo {
    std::string_view key;
    double min_value;
    double max_value;
    double fallback;
    std::string_view help;
  };

  struct FamilyInfo {
    std::string_view name;
    std::string_view description;
    BuildFn build;
    std::span<const ParamInfo> params;
    /// Used when the spec leaves nodes unset and its shape does not fix
    /// the count.
    std::size_t default_nodes;
    std::size_t min_nodes;
    std::size_t max_nodes;  ///< 0 = unbounded above min_nodes
    /// Null for families whose size comes from `nodes` alone. The family's
    /// build rejects an explicit `nodes` that contradicts its shape.
    ShapeNodesFn shape_nodes = nullptr;
  };

  /// The process-wide registry (a static table: no registration order, no
  /// initialization races, identical contents in every binary).
  [[nodiscard]] static const TopologyBuilder& registry();

  [[nodiscard]] bool has_family(std::string_view name) const;
  /// Throws std::invalid_argument for unknown families.
  [[nodiscard]] const FamilyInfo& family(std::string_view name) const;
  [[nodiscard]] std::span<const FamilyInfo> families() const;

  /// Checks the spec against its family's declared parameters and node
  /// range without building; throws std::invalid_argument on any problem
  /// and returns the effective node count (when the spec leaves nodes
  /// unset: the count its shape fixes, else the family default).
  std::size_t validate(const GraphSpec& spec) const;

  /// Validates `spec` and builds the graph; see the header comment.
  [[nodiscard]] Topology build(const GraphSpec& spec) const;

 private:
  TopologyBuilder() = default;
};

/// Parses `spec` ("family[:key=value,...]", see GraphSpec::parse), validates
/// it and builds the graph through the registry. Throws
/// std::invalid_argument on a malformed or unknown spec.
[[nodiscard]] Topology build_topology(std::string_view spec);

namespace builders::families {

// The per-family build entry points behind the registry. Each consumes a
// spec whose nodes/params the registry has already validated and defaulted.
// Direct use is for tests; everyone else goes through build().
[[nodiscard]] Topology arpanet87(const GraphSpec& spec);
[[nodiscard]] Topology two_region(const GraphSpec& spec);
[[nodiscard]] Topology ring(const GraphSpec& spec);
[[nodiscard]] Topology grid(const GraphSpec& spec);
/// 2 x per_region, or 0 when per_region is unset.
[[nodiscard]] std::size_t two_region_shape_nodes(const GraphSpec& spec);
/// width x height, or 0 unless both are set.
[[nodiscard]] std::size_t grid_shape_nodes(const GraphSpec& spec);
[[nodiscard]] Topology random_connected(const GraphSpec& spec);
[[nodiscard]] Topology clustered(const GraphSpec& spec);
[[nodiscard]] Topology milnet(const GraphSpec& spec);
[[nodiscard]] Topology hier_as(const GraphSpec& spec);
[[nodiscard]] Topology waxman(const GraphSpec& spec);
[[nodiscard]] Topology barabasi_albert(const GraphSpec& spec);
[[nodiscard]] Topology fat_tree(const GraphSpec& spec);
[[nodiscard]] Topology leo_grid(const GraphSpec& spec);

}  // namespace builders::families

}  // namespace arpanet::net
