// Observability counters: the machine-readable telemetry registry.
//
// ARPALINT-LAYER(util): plain value struct every layer may fill or merge
//
// The paper's central claims are dynamic — how much SPF work a metric
// causes, how many updates it floods, how deep the event queue gets — so
// every run exposes them as one plain-struct registry instead of ad-hoc
// accessors scattered over the subsystems. Counters is allocation-free (a
// fixed set of std::uint64_t fields) and cheap to copy; sim::Network fills
// one per run (src/sim/network.h), sim::ScenarioResult carries the
// snapshot, and exp::SweepResult aggregates across sweep cells.
//
// The static catalog() maps stable names to members so exporters and tests
// enumerate the registry without hand-maintained switch statements; adding a
// counter means adding a field plus one catalog row.
//
// Semantics: values cover the whole lifetime of a Network (warm-up
// included), unlike sim::NetworkStats which is reset at the measurement
// window — telemetry wants total work done, not windowed rates.

#pragma once

#include <cstdint>
#include <span>

namespace arpanet::obs {

struct Counters {
  // ---- SPF work (summed over every PSN's resident IncrementalSpf) ----
  std::uint64_t spf_full = 0;         ///< full Dijkstra recomputations
  std::uint64_t spf_incremental = 0;  ///< localized incremental passes
  std::uint64_t spf_skipped = 0;      ///< updates requiring no distance work
  std::uint64_t spf_nodes_touched = 0;  ///< nodes re-distanced incrementally

  // ---- routing-update traffic ----
  std::uint64_t updates_originated = 0;    ///< updates generated network-wide
  std::uint64_t update_packets_sent = 0;   ///< flooded transmissions

  // ---- data plane ----
  std::uint64_t packets_forwarded = 0;  ///< data-packet transmissions (per hop)
  std::uint64_t packets_dropped = 0;    ///< queue + unreachable + loop drops

  // ---- event engine ----
  std::uint64_t events_processed = 0;
  std::uint64_t event_queue_peak_depth = 0;  ///< high-water mark (merged by max)
  std::uint64_t event_queue_slab_slots = 0;  ///< slab slots allocated (max)
  std::uint64_t event_queue_resizes = 0;     ///< calendar bucket rebuilds
  /// Events scheduled beyond the calendar's far rung (sorted-overflow
  /// inserts).
  std::uint64_t event_queue_overflow_scheduled = 0;

  // ---- packet pool (sim/packet_pool.h) ----
  std::uint64_t packet_pool_slots = 0;     ///< distinct slots constructed (max)
  std::uint64_t packet_pool_acquired = 0;  ///< total packet acquisitions
  std::uint64_t packet_pool_recycled = 0;  ///< acquisitions served by freelist

  // ---- runtime invariant layer ----
  /// Exact per-update-period movement-bound checks executed (section 4.3).
  std::uint64_t invariant_period_checks = 0;

  // ---- allocation guard (util/alloc_guard.h) ----
  /// AllocGuard scopes run (one per measurement window).
  std::uint64_t alloc_guard_scopes = 0;
  /// Heap bytes allocated inside a guard scope — the worst cell's value
  /// after a merge (zero is the expected Release steady state).
  std::uint64_t alloc_guard_bytes_peak = 0;

  /// How a counter combines across runs: totals add, watermarks take the max.
  enum class Merge : std::uint8_t { kSum, kMax };

  struct Entry {
    const char* name;
    std::uint64_t Counters::* member;
    Merge merge;
  };

  /// The full registry, one entry per field above, in declaration order.
  [[nodiscard]] static std::span<const Entry> catalog();

  /// Merges another snapshot into this one per each entry's Merge rule.
  Counters& operator+=(const Counters& other);
};

}  // namespace arpanet::obs
