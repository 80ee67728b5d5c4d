// Figure 7: "Reported Cost Needed to Shed Routes".
//
// X: route length (hops at ambient cost). Y: the reported cost (hops)
// needed to shed routes of that length from the average link — mean, with
// standard deviation and min/max, aggregated over every (link, route) pair
// of the ARPANET-like topology under the peak-hour matrix.
//
// Headline numbers from section 5.2 to compare: shedding *all* of a link's
// routes takes ~4 hops for the average link and ~8 for the worst; long
// routes have alternates only slightly longer, so they shed near 1-2 hops.

#include <cstdio>

#include "src/analysis/shed_cost.h"
#include "src/net/builders/registry.h"

int main() {
  using namespace arpanet;
  const net::Topology topo = net::build_topology("arpanet87");
  const auto matrix = traffic::TrafficMatrix::peak_hour(
      topo.node_count(), 400e3, util::Rng{1987});

  const analysis::ShedCostResult r = analysis::shed_cost_study(topo, matrix);

  std::printf("# Figure 7: reported cost (hops) needed to shed routes, by route length\n");
  std::printf("# len   routes     mean   stddev      min      max\n");
  for (std::size_t len = 1; len < r.by_route_length.size(); ++len) {
    const stats::Summary& s = r.by_route_length[len];
    if (s.count() == 0) continue;
    std::printf("%5zu %8lld %8.2f %8.2f %8.2f %8.2f\n", len,
                static_cast<long long>(s.count()), s.mean(), s.stddev(),
                s.min(), s.max());
  }
  std::printf("\n# cost to shed ALL routes from a link: mean %.2f hops (paper ~4),"
              " max %.2f (paper ~8)\n",
              r.shed_all.mean(), r.shed_all.max());
  std::printf("# routes that never shed within the scan: %ld (paper: none —"
              " rich alternate paths)\n",
              r.unshed_routes);
  return 0;
}
