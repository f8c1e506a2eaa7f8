// Intrusive per-thread retire list. Single-owner: only the owning thread
// pushes and scans, so no synchronization is needed.
//
// The list is a few chains (segments), so a publish-on-ping domain can
// sweep only the nodes a completed handshake covers (the lazy sweep,
// pop_engine.hpp "Certification"):
//   open     — where push appends;
//   sealed   — up to kMaxSealed chains, oldest first, each carrying the
//              handshake ticket its owner read when sealing it. A
//              handshake whose ticket is above the stamp covers it;
//   covered  — nodes some completed handshake already covered, kept
//              because a reservation still named them.
// Schemes that never seal see one chain, as before. Every whole-list
// operation (sweep_batch with kWhole, drain, adopt) visits every segment.
//
// The list also keeps the oldest retire_era it holds (a lower bound after
// a partial sweep), so an epoch sweep can tell, without a walk, that none
// of its nodes is below the minimum announced epoch.
#pragma once

#include <cstdint>

#include "runtime/pool_alloc.hpp"
#include "smr/reclaimable.hpp"

namespace pop::smr {

class RetireList {
 public:
  // sweep_batch / cover bound meaning "every segment, the open one too".
  static constexpr uint64_t kWhole = UINT64_MAX;
  // Distinct sealed stamps kept apart; a further seal raises the newest.
  static constexpr int kMaxSealed = 3;

  void push(Reclaimable* n) noexcept {
    if (open_.head == nullptr) open_.tail = n;
    n->rl_next = open_.head;
    open_.head = n;
    ++open_.len;
    ++len_;
    if (n->retire_era < oldest_era_) oldest_era_ = n->retire_era;
  }

  uint64_t length() const noexcept { return len_; }
  bool empty() const noexcept { return len_ == 0; }
  uint64_t open_length() const noexcept { return open_.len; }

  // No node in the list has a retire_era below this; UINT64_MAX when the
  // list is empty. Exact after a push or a whole-list sweep; a partial
  // sweep leaves it as a lower bound.
  uint64_t oldest_era() const noexcept { return oldest_era_; }

  // Lowest stamp still waiting for a covering handshake; kWhole if none.
  uint64_t oldest_sealed() const noexcept {
    return nsealed_ > 0 ? sealed_[0].stamp : kWhole;
  }

  // Closes the open segment under `stamp` (stamps only grow). A seal with
  // the newest segment's stamp joins it: one handshake covers both. Once
  // kMaxSealed stamps are waiting, the newest segment takes the new,
  // higher stamp, which only asks for a later handshake.
  void seal(uint64_t stamp) noexcept {
    if (open_.head == nullptr) return;
    if (nsealed_ > 0 && (sealed_[nsealed_ - 1].stamp == stamp ||
                         nsealed_ == kMaxSealed)) {
      Sealed& newest = sealed_[nsealed_ - 1];
      splice(newest.chain, open_);
      newest.stamp = stamp;
      return;
    }
    sealed_[nsealed_].chain = open_;
    sealed_[nsealed_].stamp = stamp;
    ++nsealed_;
    open_ = {};
  }

  // Batched sweep: chains every freeable node's block into `batch`
  // instead of freeing one block at a time — the batch keeps one chain
  // per size class and hands them to the freeing thread's lists whole.
  // Every node is a trivially destructible pool block addressed by its
  // Reclaimable base (reclaimable.hpp), so there is nothing to run first.
  // Visits the covered segment, every sealed segment stamped below
  // `below`, and, for kWhole, the open segment; survivors stay in their
  // segment. Returns the number freed.
  template <class Pred>
  uint64_t sweep_batch(Pred&& can_free,
                       runtime::PoolAllocator::FreeBatch& batch,
                       uint64_t below = kWhole) noexcept {
    uint64_t kept_oldest = UINT64_MAX;
    uint64_t freed = sweep_chain(covered_, can_free, batch, kept_oldest);
    for (int i = 0; i < nsealed_ && sealed_[i].stamp < below; ++i) {
      freed += sweep_chain(sealed_[i].chain, can_free, batch, kept_oldest);
    }
    if (below == kWhole) {
      freed += sweep_chain(open_, can_free, batch, kept_oldest);
      oldest_era_ = kept_oldest;  // every node was visited
    }
    len_ -= freed;
    if (len_ == 0) oldest_era_ = UINT64_MAX;
    return freed;
  }

  // Moves the segments sweep_batch(…, below) visits into the covered one:
  // a completed handshake covers a node for good, so later sweeps against
  // any newer handshake may free it.
  void cover(uint64_t below) noexcept {
    int n = 0;
    while (n < nsealed_ && sealed_[n].stamp < below) {
      splice(covered_, sealed_[n].chain);
      ++n;
    }
    for (int i = n; i < nsealed_; ++i) sealed_[i - n] = sealed_[i];
    nsealed_ -= n;
    if (below == kWhole) splice(covered_, open_);
  }

  // Frees everything unconditionally (domain teardown), batched.
  uint64_t drain() noexcept {
    runtime::PoolAllocator::FreeBatch batch;
    return sweep_batch([](Reclaimable*) { return true; }, batch);
  }

  // Splices every segment of `other` into this list's open segment,
  // leaving `other` empty; returns the number of nodes adopted. Used by
  // the zombie reaper: a dead thread's orphaned retire list moves
  // wholesale into a surviving thread's list so its backlog rejoins
  // normal sweeps. The caller must guarantee nobody else is touching
  // either list (single-owner rule — the reaper holds the domain reap
  // lock and the old owner is dead).
  uint64_t adopt(RetireList& other) noexcept {
    const uint64_t n = other.len_;
    other.cover(kWhole);
    splice(open_, other.covered_);
    len_ += n;
    other.len_ = 0;
    if (other.oldest_era_ < oldest_era_) oldest_era_ = other.oldest_era_;
    other.oldest_era_ = UINT64_MAX;
    return n;
  }

 private:
  struct Chain {
    Reclaimable* head = nullptr;
    Reclaimable* tail = nullptr;
    uint64_t len = 0;
  };
  struct Sealed {
    Chain chain;
    uint64_t stamp = 0;
  };

  // Prepends all of `src` to `dst`, leaving `src` empty.
  static void splice(Chain& dst, Chain& src) noexcept {
    if (src.head == nullptr) return;
    src.tail->rl_next = dst.head;
    if (dst.head == nullptr) dst.tail = src.tail;
    dst.head = src.head;
    dst.len += src.len;
    src = {};
  }

  // Sweeps one chain; lowers `kept_oldest` to each survivor's retire_era.
  template <class Pred>
  static uint64_t sweep_chain(Chain& c, Pred& can_free,
                              runtime::PoolAllocator::FreeBatch& batch,
                              uint64_t& kept_oldest) noexcept {
    Chain kept;
    uint64_t freed = 0;
    Reclaimable* cur = c.head;
    while (cur != nullptr) {
      Reclaimable* next = cur->rl_next;
      if (can_free(cur)) {
        batch.add(cur);
        ++freed;
      } else {
        if (cur->retire_era < kept_oldest) kept_oldest = cur->retire_era;
        if (kept.head == nullptr) kept.tail = cur;
        cur->rl_next = kept.head;
        kept.head = cur;
        ++kept.len;
      }
      cur = next;
    }
    c = kept;
    return freed;
  }

  Chain open_;
  Chain covered_;
  Sealed sealed_[kMaxSealed];
  int nsealed_ = 0;
  uint64_t len_ = 0;
  uint64_t oldest_era_ = UINT64_MAX;
};

}  // namespace pop::smr
