#include "src/stats/histogram.h"

#include <algorithm>
#include <stdexcept>

namespace arpanet::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_{lo}, hi_{hi}, width_{(hi - lo) / static_cast<double>(bins)},
      bins_(bins, 0) {
  if (!(hi > lo) || bins == 0) throw std::invalid_argument("bad histogram bounds");
}

void Histogram::add(double x) {
  const auto last = static_cast<long>(bins_.size()) - 1;
  const long idx =
      std::clamp(static_cast<long>((x - lo_) / width_), 0L, last);
  ++bins_[static_cast<std::size_t>(idx)];
  ++count_;
}

double Histogram::bin_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double seen = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    seen += static_cast<double>(bins_[i]);
    if (seen >= target) return bin_lo(i) + width_ / 2.0;
  }
  return bin_lo(bins_.size() - 1) + width_ / 2.0;
}

}  // namespace arpanet::stats
