// Deterministic random number generation.
//
// We implement xoshiro256** (Blackman & Vigna) seeded through SplitMix64
// rather than relying on std::mt19937 so that streams are cheap to split
// (every traffic source gets an independent, reproducible stream derived
// from the scenario seed) and results are identical across standard-library
// implementations.

#pragma once

#include <array>
#include <cstdint>

namespace arpanet::util {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_{seed} {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the project-wide PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x1987'07'26ULL);  // default: HNM install week

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }
  std::uint64_t next();

  /// A new generator whose stream is statistically independent of this one.
  /// Derived deterministically from the parent state and `stream_id` so
  /// that e.g. traffic source i always sees the same stream for a given
  /// scenario seed, regardless of construction order elsewhere.
  [[nodiscard]] Rng split(std::uint64_t stream_id) const;

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Exponential with the given mean (> 0). Used for Poisson interarrivals.
  /// Never exceeds kMaxExponentialMeans times the mean.
  double exponential(double mean);
  /// -log(2^-53): the smallest 1 - uniform() is 2^-53.
  static constexpr double kMaxExponentialMeans = 53 * 0.69314718055994531;
  /// true with probability p.
  bool bernoulli(double p);

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace arpanet::util
