// Update-generation significance criterion.
//
// A PSN does not flood a new cost every measurement period; the change must
// pass a significance test. Under D-SPF the threshold *decays* each time it
// is not met, so that an update goes out at most 50 seconds after the last
// one even on a quiet link (paper section 2.2). HN-SPF replaced the decay
// with a fixed threshold of a little less than half a hop (paper section
// 4.3, "Minimum Change") while keeping the 50-second reliability cap.
// Both behaviours are expressed by one filter with different configs.

#pragma once

#include <stdexcept>

namespace arpanet::metrics {

class SignificanceFilter {
 public:
  struct Config {
    /// Threshold a cost change must reach to be reported (routing units).
    double threshold = 0.0;
    /// Amount subtracted from the working threshold after each period in
    /// which no update was generated (D-SPF style decay; 0 = fixed).
    double decay_per_period = 0.0;
    /// Hard cap: an update is forced after this many consecutive quiet
    /// periods (the ARPANET's 50 s / 10 s-period reliability rule).
    int max_quiet_periods = 5;
  };

  /// D-SPF defaults: threshold 64 routing units decaying by 12.8 per 10 s
  /// period, reaching zero at the fifth period — the historical constants'
  /// shape (update at latest every 50 s).
  [[nodiscard]] static Config dspf_config() { return Config{64.0, 12.8, 5}; }

  /// HN-SPF: fixed threshold supplied by the metric ("a little less than a
  /// half-hop" for the line type), 50 s cap retained.
  [[nodiscard]] static Config fixed_config(double threshold) {
    return Config{threshold, 0.0, 5};
  }

  explicit SignificanceFilter(Config cfg) : cfg_{cfg}, working_threshold_{cfg.threshold} {
    if (cfg.threshold < 0 || cfg.decay_per_period < 0 || cfg.max_quiet_periods < 1) {
      throw std::invalid_argument("invalid SignificanceFilter config");
    }
  }

  /// Called once per measurement period with the metric's candidate cost.
  /// Returns true if an update should be generated (and records the value
  /// as reported).
  bool should_report(double candidate) {
    if (!ever_reported_) {
      note_reported(candidate);
      return true;
    }
    const double change =
        candidate >= last_reported_ ? candidate - last_reported_ : last_reported_ - candidate;
    ++quiet_periods_;
    if (change >= working_threshold_ || quiet_periods_ >= cfg_.max_quiet_periods) {
      note_reported(candidate);
      return true;
    }
    working_threshold_ -= cfg_.decay_per_period;
    if (working_threshold_ < 0) working_threshold_ = 0;
    return false;
  }

  /// Records `value` as reported without testing it. Used when a node
  /// bundles all its links into one update because some *other* link's
  /// change was significant — every included value becomes the new baseline.
  void force_report(double value) { note_reported(value); }

  [[nodiscard]] double last_reported() const { return last_reported_; }
  [[nodiscard]] double working_threshold() const { return working_threshold_; }

 private:
  void note_reported(double value) {
    last_reported_ = value;
    ever_reported_ = true;
    quiet_periods_ = 0;
    working_threshold_ = cfg_.threshold;
  }

  Config cfg_;
  double working_threshold_;
  double last_reported_ = 0.0;
  bool ever_reported_ = false;
  int quiet_periods_ = 0;
};

}  // namespace arpanet::metrics
