// Fixture: an unqualified call to an allocating member name, on `this`,
// inside a hot region, is flagged like `items_.reserve(...)` would be.

#pragma once

#include <cstddef>
#include <vector>

namespace fixture {

class Slab {
 public:
  // ARPALINT-HOTPATH-BEGIN
  int* grab() {
    if (used_ == items_.size()) reserve(used_ + 1);
    return &items_[used_++];
  }
  // ARPALINT-HOTPATH-END

 private:
  void reserve(std::size_t n) { items_.resize(n); }

  std::vector<int> items_;
  std::size_t used_ = 0;
};

}  // namespace fixture
