// Strong unit types used throughout the library.
//
// The simulator works in integer microseconds (SimTime) so event ordering is
// exact and runs are bit-reproducible across platforms; rates and sizes carry
// their units in the type so a bandwidth can never be confused with a delay
// (C++ Core Guidelines P.1/I.4: make interfaces precisely and strongly typed).

#pragma once

#include <cstdint>
#include <compare>
#include <limits>

namespace arpanet::util {

/// A point in (or span of) simulated time, in integer microseconds.
///
/// SimTime is used both as an absolute clock value (microseconds since the
/// start of the run) and as a duration; the arithmetic operators below cover
/// both uses. Construction is explicit via the from_* factories so callers
/// always state the unit.
class SimTime {
 public:
  constexpr SimTime() = default;

  [[nodiscard]] static constexpr SimTime from_us(std::int64_t us) { return SimTime{us}; }
  [[nodiscard]] static constexpr SimTime from_ms(double ms) {
    return SimTime{static_cast<std::int64_t>(ms * 1e3 + (ms >= 0 ? 0.5 : -0.5))};
  }
  [[nodiscard]] static constexpr SimTime from_sec(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e6 + (s >= 0 ? 0.5 : -0.5))};
  }
  /// Largest magnitude, in seconds, from_sec converts without overflowing
  /// the microsecond count. Text parsers reject larger and non-finite
  /// values before converting.
  static constexpr double kMaxSec = 9.2e12;
  [[nodiscard]] static constexpr SimTime zero() { return SimTime{0}; }
  [[nodiscard]] static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t us() const { return us_; }
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(us_) / 1e3; }
  [[nodiscard]] constexpr double sec() const { return static_cast<double>(us_) / 1e6; }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime& operator+=(SimTime o) { us_ += o.us_; return *this; }
  constexpr SimTime& operator-=(SimTime o) { us_ -= o.us_; return *this; }

  [[nodiscard]] friend constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime{a.us_ + b.us_}; }
  [[nodiscard]] friend constexpr SimTime operator-(SimTime a, SimTime b) { return SimTime{a.us_ - b.us_}; }
  [[nodiscard]] friend constexpr SimTime operator*(SimTime a, std::int64_t k) { return SimTime{a.us_ * k}; }
  [[nodiscard]] friend constexpr SimTime operator*(std::int64_t k, SimTime a) { return a * k; }

 private:
  constexpr explicit SimTime(std::int64_t us) : us_{us} {}
  std::int64_t us_ = 0;
};

/// Link bandwidth in bits per second.
class DataRate {
 public:
  constexpr DataRate() = default;

  [[nodiscard]] static constexpr DataRate bps(double v) { return DataRate{v}; }
  [[nodiscard]] static constexpr DataRate kbps(double v) { return DataRate{v * 1e3}; }

  [[nodiscard]] constexpr double bits_per_sec() const { return bps_; }
  [[nodiscard]] constexpr double kilobits_per_sec() const { return bps_ / 1e3; }

  /// Time to serialize `bits` onto a line of this rate.
  [[nodiscard]] constexpr SimTime transmission_time(double bits) const {
    return SimTime::from_sec(bits / bps_);
  }

  constexpr auto operator<=>(const DataRate&) const = default;

 private:
  constexpr explicit DataRate(double bps) : bps_{bps} {}
  double bps_ = 0.0;
};

/// The network-wide average packet size the ARPANET HNM assumed when
/// converting delay to utilization with its M/M/1 model (paper section 4.1).
inline constexpr double kAveragePacketBits = 600.0;

}  // namespace arpanet::util
