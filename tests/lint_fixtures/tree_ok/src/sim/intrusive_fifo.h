// Fixture: members marked ARPALINT-NOALLOC keep their natural names, and
// hot regions of the same file call them without a waiver.

#pragma once

namespace fixture {

struct Node {
  Node* next = nullptr;
};

class IntrusiveFifo {
 public:
  // ARPALINT-NOALLOC
  void push(Node& n) {
    n.next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = &n;
    } else {
      head_ = &n;
    }
    tail_ = &n;
  }
  void insert(Node& n) { push(n); }  // ARPALINT-NOALLOC
  Node* pop() {
    Node* n = head_;
    if (n != nullptr) head_ = n->next;
    if (head_ == nullptr) tail_ = nullptr;
    return n;
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
};

// ARPALINT-HOTPATH-BEGIN
inline Node* cycle(IntrusiveFifo& q, Node& a, Node& b) {
  q.push(a);
  q.insert(b);
  return q.pop();
}
// ARPALINT-HOTPATH-END

}  // namespace fixture
