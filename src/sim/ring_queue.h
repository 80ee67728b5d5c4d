// Allocation-free FIFO for per-link packet queues.
//
// The PSN output queues used to be std::deques; a deque allocates and frees
// a chunk every few dozen pushes even at steady state. RingQueue is a
// power-of-two circular buffer that only allocates when the high-water mark
// grows, so a queue that has reached its working depth never touches the
// allocator again. Elements are assumed cheap to move (the queues hold
// 4-byte PacketHandles; the enqueue time lives in the Packet).
//
// ARPALINT-HOTPATH

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace arpanet::sim {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }

  void push_back(T value) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask_] = std::move(value);
    ++count_;
  }

  [[nodiscard]] T& front() {
    ARPA_DCHECK(count_ > 0) << "front() on an empty RingQueue";
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const {
    ARPA_DCHECK(count_ > 0) << "front() on an empty RingQueue";
    return buf_[head_];
  }

  void pop_front() {
    ARPA_DCHECK(count_ > 0) << "pop_front() on an empty RingQueue";
    buf_[head_] = T{};  // drop any owned state now, not at overwrite time
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  /// Capacity currently reserved (a power of two; 0 before first push).
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// Pre-sizes the ring so it holds at least `n` elements without growing —
  /// queues with a known depth bound pay their allocation at construction
  /// instead of mid-measurement.
  void reserve(std::size_t n) {
    std::size_t cap = buf_.empty() ? 8 : buf_.size();
    while (cap < n) cap *= 2;
    if (cap > buf_.size()) regrow(cap);
  }

 private:
  void grow() { regrow(buf_.empty() ? 8 : buf_.size() * 2); }

  void regrow(std::size_t new_cap) {
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(next);
    head_ = 0;
    mask_ = new_cap - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace arpanet::sim
