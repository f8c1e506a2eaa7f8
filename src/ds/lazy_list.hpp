// Lazy list (LL) — Heller et al., OPODIS'05 — lock-based map with
// wait-free-style traversals and logical deletion (Figure 2b, appendix
// Figure 9).
//
// Updates lock pred (and curr for removal/replacement) and validate;
// removal first sets curr->marked, then unlinks. Traversals are
// lock-free and validate each hop: after protecting curr (read from
// pred->next), pred must still be unmarked — if pred was unmarked at
// that check, the pred->curr edge was live when the reservation was
// validated, which is exactly the reachability HP-family schemes need.
// On a marked pred the traversal restarts from the head.
//
// put() on an existing key swaps in a fresh node under both locks (one
// pointer store: atomic for readers) and retires the displaced node —
// values are immutable after publication, never updated in place. The
// displaced node is marked so writers re-traverse, but ALSO flagged
// `replaced` so a reader still holding it keeps a linearizable view: the
// key never left the list, so the stale node reads as present with its
// old value (the read linearizes before the swap).
//
// Slots: 0 = pred, 1 = curr. Retire happens after both locks are
// released so a reclaimer can never free a node whose spinlock is still
// being touched.
#pragma once

#include <atomic>
#include <cstdint>

#include "ds/kv.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/spinlock.hpp"
#include "smr/checkpoint.hpp"
#include "smr/domain_base.hpp"
#include "smr/tagged.hpp"

namespace pop::ds {

template <class Smr>
class LazyList {
 public:
  static constexpr uint64_t kMaxKey = UINT64_MAX;  // tail sentinel key

  explicit LazyList(const smr::SmrConfig& cfg = {}) : smr_(cfg) {
    tail_ = smr_.template create<Node>(kMaxKey);
    head_ = smr_.template create<Node>(0);
    head_->next.store(tail_, std::memory_order_relaxed);
  }

  ~LazyList() { smr::destroy_list(head_); }

  bool get(uint64_t key, uint64_t* val_out) {
    typename Smr::Guard g(smr_);
    POPSMR_CHECKPOINT(smr_);
    Node *pred, *curr;
    traverse(key, pred, curr);
    if (curr->key != key) return false;
    // A marked node is absent (deleted) unless it was displaced by a
    // replace — then the key never left the list and the stale node's
    // immutable value is a linearizable (pre-swap) read.
    if (curr->marked.load(std::memory_order_acquire) &&
        !curr->replaced.load(std::memory_order_acquire)) {
      return false;
    }
    if (val_out != nullptr) *val_out = curr->val;
    return true;
  }

  bool contains(uint64_t key) { return get(key, nullptr); }

  bool insert(uint64_t key, uint64_t val) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Node *pred, *curr;
    traverse(key, pred, curr);
    smr_.enter_write_phase({pred, curr});
    pred->lock.lock();
    if (validate(pred, curr)) {
      if (curr->key == key) {
        pred->lock.unlock();
        return false;
      }
      Node* n = smr_.template create<Node>(key, val);
      n->next.store(curr, std::memory_order_relaxed);
      pred->next.store(n, std::memory_order_release);
      pred->lock.unlock();
      return true;
    }
    pred->lock.unlock();
    smr_.exit_write_phase();
    goto retry;
  }

  bool insert(uint64_t key) { return insert(key, key); }

  PutResult put(uint64_t key, uint64_t val) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Node *pred, *curr;
    traverse(key, pred, curr);
    smr_.enter_write_phase({pred, curr});
    pred->lock.lock();
    if (!validate(pred, curr)) {
      pred->lock.unlock();
      smr_.exit_write_phase();
      goto retry;
    }
    if (curr->key != key) {
      Node* n = smr_.template create<Node>(key, val);
      n->next.store(curr, std::memory_order_relaxed);
      pred->next.store(n, std::memory_order_release);
      pred->lock.unlock();
      return PutResult::kInserted;
    }
    // Replace: both locks, like removal — curr's lock keeps its next edge
    // stable (an insert-after-curr would lock curr as its pred) while the
    // fresh node is swapped in with one pointer store.
    curr->lock.lock();
    Node* n = smr_.template create<Node>(key, val);
    n->next.store(curr->next.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    curr->replaced.store(true, std::memory_order_relaxed);
    pred->next.store(n, std::memory_order_release);     // readers switch here
    curr->marked.store(true, std::memory_order_release);  // writers re-traverse
    curr->lock.unlock();
    pred->lock.unlock();
    smr_.retire(curr);  // after unlock: nobody touches a freed spinlock
    return PutResult::kReplaced;
  }

  bool erase(uint64_t key) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Node *pred, *curr;
    traverse(key, pred, curr);
    if (curr->key != key) return false;
    if (curr->marked.load(std::memory_order_acquire)) {
      // Displaced by a replace: the key lives on in the replacement node,
      // so this view is stale — re-traverse instead of reporting absent.
      if (curr->replaced.load(std::memory_order_acquire)) goto retry;
      return false;
    }
    smr_.enter_write_phase({pred, curr});
    pred->lock.lock();
    curr->lock.lock();
    if (validate(pred, curr) && curr->key == key) {
      curr->marked.store(true, std::memory_order_release);  // logical
      pred->next.store(curr->next.load(std::memory_order_relaxed),
                       std::memory_order_release);          // physical
      curr->lock.unlock();
      pred->lock.unlock();
      smr_.retire(curr);  // after unlock: nobody touches a freed spinlock
      return true;
    }
    curr->lock.unlock();
    pred->lock.unlock();
    smr_.exit_write_phase();
    goto retry;
  }

  uint64_t size_slow() const {
    uint64_t n = 0;
    for (Node* c = head_->next.load(std::memory_order_acquire); c != tail_;
         c = c->next.load(std::memory_order_acquire)) {
      if (!c->marked.load(std::memory_order_acquire)) ++n;
    }
    return n;
  }

  bool sorted_unique_slow() const {
    uint64_t last = 0;
    bool first = true;
    for (Node* c = head_->next.load(std::memory_order_acquire); c != tail_;
         c = c->next.load(std::memory_order_acquire)) {
      if (!first && c->key <= last) return false;
      last = c->key;
      first = false;
    }
    return true;
  }

  Smr& domain() { return smr_; }

  LazyList(const LazyList&) = delete;
  LazyList& operator=(const LazyList&) = delete;

 private:
  struct Node : Smr::NodeHeader {
    explicit Node(uint64_t k, uint64_t v = 0) : key(k), val(v) {}
    uint64_t key;
    uint64_t val;  // immutable after publication (replace swaps nodes)
    std::atomic<Node*> next{nullptr};
    runtime::Spinlock lock;
    std::atomic<bool> marked{false};
    // Set (before marked) when the node was displaced by a put-replace:
    // readers treat it as still present, writers as stale.
    std::atomic<bool> replaced{false};
  };
  // The pool's size classes are fitted to the node: it wastes under 16 B.
  // The size pin makes a field that crosses a size class fail here. The
  // block is 48 B under the 8-B node header, 64 B under an era scheme's
  // 24-B one.
  static_assert(runtime::detail::pool_class_slack(sizeof(Node)) < 16);
  static_assert(runtime::detail::pool_block_bytes(sizeof(Node)) ==
                (smr::kEraHeader<Smr> ? 64 : 48));

  static constexpr int kSlotPred = 0;
  static constexpr int kSlotCurr = 1;

  // Postcondition: pred->key < key <= curr->key, both reserved (rotating
  // slots), and pred was unmarked after curr's reservation was validated.
  void traverse(uint64_t key, Node*& pred, Node*& curr) {
  retry:
    int spred = kSlotPred, scurr = kSlotCurr;
    pred = head_;  // head sentinel: never marked, never retired
    curr = smr_.protect(scurr, head_->next);
    while (curr->key < key) {
      pred = curr;
      // Rotate roles: the new pred keeps the reservation it got as curr;
      // the next protect overwrites the old pred's slot.
      const int t = spred;
      spred = scurr;
      scurr = t;
      curr = smr_.protect(scurr, pred->next);
      if (pred->marked.load(std::memory_order_acquire)) goto retry;
    }
  }

  static bool validate(Node* pred, Node* curr) {
    return !pred->marked.load(std::memory_order_acquire) &&
           !curr->marked.load(std::memory_order_acquire) &&
           pred->next.load(std::memory_order_acquire) == curr;
  }

  Smr smr_;  // destroyed last
  Node* head_;
  Node* tail_;
};

}  // namespace pop::ds
