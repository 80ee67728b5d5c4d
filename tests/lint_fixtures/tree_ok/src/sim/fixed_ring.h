// Fixture: declaring a member named like an allocating call inside a hot
// region is not a call, nor is a `Scope::name(` definition.

#pragma once

#include <cstddef>

namespace fixture {

// ARPALINT-HOTPATH-BEGIN
class FixedRing {
 public:
  static constexpr std::size_t kMax = 64;

  void reserve(std::size_t n) {
    cap_ = n < kMax ? n : kMax;
  }
  FixedRing& assign(const FixedRing& other);
  void resize(std::size_t n);

 private:
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
};

inline FixedRing& FixedRing::assign(const FixedRing& other) {
  cap_ = other.cap_;
  size_ = other.size_;
  return *this;
}

inline void FixedRing::resize(std::size_t n) {
  size_ = n < cap_ ? n : cap_;
}
// ARPALINT-HOTPATH-END

}  // namespace fixture
