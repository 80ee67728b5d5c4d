// Fixture: an ARPALINT-NOALLOC marker must mark a declaration, and it
// exempts calls in this file only (fifo_user.h's call is still flagged).

#pragma once

#include <vector>

namespace fixture {

class Fifo {
 public:
  void push(int v) { items_.push_back(v); }  // ARPALINT-NOALLOC

 private:
  std::vector<int> items_;
};

// ARPALINT-NOALLOC

}  // namespace fixture
