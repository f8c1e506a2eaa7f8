// MSQ — Michael & Scott's lock-free FIFO queue, the original hazard
// pointer client (Michael's HP paper uses it as the running example).
// Not part of the paper's evaluation; included because it exercises SMR
// differently from the search structures: every dequeue retires the
// (dummy) head node, so the retire rate equals the operation rate, and
// reservations protect exactly two hops (head and head->next).
//
// Under NBR the enqueue/dequeue read phase is the initial snapshot of
// head/tail; every CAS runs in a write phase with its operands reserved.
// Fresh nodes are allocated inside the write phase so a neutralization
// longjmp can never leak one.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "runtime/pool_alloc.hpp"
#include "smr/checkpoint.hpp"
#include "smr/domain_base.hpp"
#include "smr/tagged.hpp"

namespace pop::ds {

template <class Smr>
class MsQueue {
 public:
  explicit MsQueue(const smr::SmrConfig& cfg = {}) : smr_(cfg) {
    Node* dummy = smr_.template create<Node>(0);
    head_.store(dummy, std::memory_order_relaxed);
    tail_.store(dummy, std::memory_order_relaxed);
  }

  ~MsQueue() { smr::destroy_list(head_.load(std::memory_order_relaxed)); }

  void enqueue(uint64_t value) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Node* t = smr_.protect(0, tail_);
    Node* next = t->next.load(std::memory_order_acquire);
    if (t != tail_.load(std::memory_order_acquire)) goto retry;
    if (next != nullptr) {
      // Tail is lagging: help swing it, then retry.
      smr_.enter_write_phase({t, next});
      tail_.compare_exchange_strong(t, next, std::memory_order_acq_rel,
                                    std::memory_order_relaxed);
      smr_.exit_write_phase();
      goto retry;
    }
    smr_.enter_write_phase({t});
    Node* n = smr_.template create<Node>(value);
    Node* expected = nullptr;
    if (t->next.compare_exchange_strong(expected, n,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      // Best effort; a helper or the next enqueue finishes the swing.
      tail_.compare_exchange_strong(t, n, std::memory_order_acq_rel,
                                    std::memory_order_relaxed);
      return;
    }
    smr::destroy_unpublished(n);
    smr_.exit_write_phase();
    goto retry;
  }

  std::optional<uint64_t> dequeue() {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Node* h = smr_.protect(0, head_);
    Node* t = tail_.load(std::memory_order_acquire);
    Node* next = smr_.protect(1, h->next);
    if (h != head_.load(std::memory_order_acquire)) goto retry;
    if (next == nullptr) return std::nullopt;  // empty (h is the dummy)
    if (h == t) {
      // Tail lagging behind a non-empty queue: help before dequeuing.
      smr_.enter_write_phase({h, next});
      tail_.compare_exchange_strong(t, next, std::memory_order_acq_rel,
                                    std::memory_order_relaxed);
      smr_.exit_write_phase();
      goto retry;
    }
    // Read the value while `next` is protected: after the CAS it becomes
    // the new dummy and a concurrent dequeuer may retire-and-free it.
    const uint64_t value = next->value;
    smr_.enter_write_phase({h, next});
    Node* expected = h;
    if (head_.compare_exchange_strong(expected, next,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      smr_.retire(h);
      return value;
    }
    smr_.exit_write_phase();
    goto retry;
  }

  bool empty_slow() const {
    const Node* h = head_.load(std::memory_order_acquire);
    return h->next.load(std::memory_order_acquire) == nullptr;
  }

  uint64_t size_slow() const {
    uint64_t n = 0;
    for (const Node* c = head_.load(std::memory_order_acquire)
                             ->next.load(std::memory_order_acquire);
         c != nullptr; c = c->next.load(std::memory_order_acquire)) {
      ++n;
    }
    return n;
  }

  Smr& domain() { return smr_; }

  MsQueue(const MsQueue&) = delete;
  MsQueue& operator=(const MsQueue&) = delete;

 private:
  struct Node : smr::Reclaimable {
    explicit Node(uint64_t v) : value(v) {}
    uint64_t value;
    std::atomic<Node*> next{nullptr};
  };
  // The pool's size classes are fitted to the node: it wastes under 16 B.
  static_assert(runtime::detail::pool_class_slack(sizeof(Node)) < 16);

  Smr smr_;  // destroyed last
  std::atomic<Node*> head_;
  std::atomic<Node*> tail_;
};

}  // namespace pop::ds
