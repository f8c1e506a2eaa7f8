// Intrusive per-thread retire list. Single-owner: only the owning thread
// pushes and scans, so no synchronization is needed.
#pragma once

#include <cstdint>

#include "runtime/pool_alloc.hpp"
#include "smr/reclaimable.hpp"

namespace pop::smr {

class RetireList {
 public:
  void push(Reclaimable* n) noexcept {
    n->rl_next = head_;
    head_ = n;
    ++len_;
  }

  uint64_t length() const noexcept { return len_; }
  bool empty() const noexcept { return head_ == nullptr; }

  // Batched sweep: chains every freeable node's block into `batch`
  // instead of freeing one block at a time — the batch keeps one chain
  // per size class and hands them to the freeing thread's lists whole.
  // Every node is a trivially destructible pool block addressed by its
  // Reclaimable base (reclaimable.hpp), so there is nothing to run first.
  // Returns the number freed.
  template <class Pred>
  uint64_t sweep_batch(Pred&& can_free,
                       runtime::PoolAllocator::FreeBatch& batch) noexcept {
    Reclaimable* kept_head = nullptr;
    uint64_t kept = 0;
    uint64_t freed = 0;
    Reclaimable* cur = head_;
    while (cur != nullptr) {
      Reclaimable* next = cur->rl_next;
      if (can_free(cur)) {
        batch.add(cur);
        ++freed;
      } else {
        cur->rl_next = kept_head;
        kept_head = cur;
        ++kept;
      }
      cur = next;
    }
    head_ = kept_head;
    len_ = kept;
    return freed;
  }

  // Frees everything unconditionally (domain teardown), batched.
  uint64_t drain() noexcept {
    runtime::PoolAllocator::FreeBatch batch;
    return sweep_batch([](Reclaimable*) { return true; }, batch);
  }

  // Splices `other`'s entire chain into this list, leaving `other` empty;
  // returns the number of nodes adopted. Used by the zombie reaper: a
  // dead thread's orphaned retire list moves wholesale into a surviving
  // thread's list so its backlog rejoins normal sweeps. The caller must
  // guarantee nobody else is touching either list (single-owner rule —
  // the reaper holds the domain reap lock and the old owner is dead).
  uint64_t adopt(RetireList& other) noexcept {
    Reclaimable* stolen = other.head_;
    if (stolen == nullptr) return 0;
    const uint64_t n = other.len_;
    Reclaimable* tail = stolen;
    while (tail->rl_next != nullptr) tail = tail->rl_next;
    tail->rl_next = head_;
    head_ = stolen;
    len_ += n;
    other.head_ = nullptr;
    other.len_ = 0;
    return n;
  }

 private:
  Reclaimable* head_ = nullptr;
  uint64_t len_ = 0;
};

}  // namespace pop::smr
