// Intrusive per-thread retire list. Single-owner: only the owning thread
// pushes and scans, so no synchronization is needed.
//
// The list is a small table of segments, each an intrusive chain with
//   epoch — the highest retire epoch of its nodes (EBR and EpochPOP push
//            the epoch they retire at; every other scheme pushes 0), and
//   needs  — which sweeps may visit it, for a publish-on-ping domain that
//            sweeps only what a completed handshake covers (the lazy
//            sweep, pop_engine.hpp "Certification"):
//              0      covered: some completed handshake already covered
//                     it, kept because a reservation still named a node;
//              s + 1  sealed under handshake ticket s: a handshake whose
//                     ticket is above s covers it;
//              kWhole open: where push appends; only whole-list sweeps.
//            A sweep bounded by `below` visits a segment iff needs <= below.
// A push whose epoch differs from the newest segment's, or onto a sealed
// segment, opens a new one; neighbours with equal epoch and needs join.
// Segments stay sorted by epoch, so an epoch sweep frees a prefix of the
// table whole, and a segment a pinned epoch holds is never walked.
//
// The table is fixed (kMaxSegments). When it is full, the two oldest
// neighbours that share `needs` merge, or else the two oldest: a merge
// only raises the older one's epoch or needs, which may delay a free but
// never hastens one. Merging the oldest, never folding pushes into the
// newest, keeps frees identical to per-node epochs while fewer distinct
// epochs at or above the minimum announced one are pending than the
// table holds: the merged segment's epoch is then already below it.
#pragma once

#include <cstdint>

#include "runtime/pool_alloc.hpp"
#include "smr/reclaimable.hpp"

namespace pop::smr {

class RetireList {
 public:
  // sweep_batch / cover bound meaning "every segment, the open ones too".
  static constexpr uint64_t kWhole = UINT64_MAX;
  static constexpr int kMaxSegments = 8;

  // Appends `n`, retired at `epoch`. Epochs are nondecreasing per thread;
  // one below the newest segment's is raised to it, keeping the table
  // sorted (raising only delays a free).
  void push(Reclaimable* n, uint64_t epoch = 0) noexcept {
    if (nseg_ == 0 || seg_[nseg_ - 1].needs != kWhole ||
        seg_[nseg_ - 1].epoch < epoch) {
      if (nseg_ == kMaxSegments) merge_oldest();
      const uint64_t floor = nseg_ > 0 ? seg_[nseg_ - 1].epoch : 0;
      seg_[nseg_++] = {nullptr, nullptr, 0, epoch < floor ? floor : epoch,
                       kWhole};
    }
    Segment& s = seg_[nseg_ - 1];
    if (s.head == nullptr) s.tail = n;
    n->rl_next = s.head;
    s.head = n;
    ++s.len;
    ++len_;
    ++open_len_;
  }

  uint64_t length() const noexcept { return len_; }
  bool empty() const noexcept { return len_ == 0; }

  uint64_t open_length() const noexcept { return open_len_; }

  // The oldest segment's epoch: an epoch sweep below it frees nothing.
  // UINT64_MAX when the list is empty.
  uint64_t oldest_epoch() const noexcept {
    return nseg_ > 0 ? seg_[0].epoch : UINT64_MAX;
  }

  // Lowest stamp still waiting for a covering handshake; kWhole if none.
  uint64_t oldest_sealed() const noexcept { return oldest_sealed_; }

  // Whether a full table ever merged two segments to take another: until
  // then, every sweep frees exactly what per-node epochs and stamps would.
  bool overflowed() const noexcept { return overflowed_; }

  // Closes the open segments under `stamp` (stamps only grow); one with
  // the epoch and stamp of its older neighbour joins it.
  void seal(uint64_t stamp) noexcept {
    for (int i = 0; i < nseg_; ++i) {
      if (seg_[i].needs == kWhole) seg_[i].needs = stamp + 1;
    }
    compact();
  }

  // Batched sweep: chains every freeable node's block into `batch`
  // instead of freeing one block at a time — the batch keeps one chain
  // per size class and hands them to the freeing thread's lists whole.
  // Every node is a trivially destructible pool block addressed by its
  // Reclaimable base (reclaimable.hpp), so there is nothing to run first.
  // Visits the covered segments, every sealed segment stamped below
  // `below`, and, for kWhole, the open ones; survivors stay in their
  // segment. Returns the number freed.
  template <class Pred>
  uint64_t sweep_batch(Pred&& can_free,
                       runtime::PoolAllocator::FreeBatch& batch,
                       uint64_t below = kWhole) noexcept {
    uint64_t freed = 0;
    for (int i = 0; i < nseg_; ++i) {
      if (seg_[i].needs <= below) freed += sweep_chain(seg_[i], can_free, batch);
    }
    len_ -= freed;
    compact();
    return freed;
  }

  // Epoch sweep: frees every node of the segments whose epoch is below
  // `min_epoch`, whatever their needs, calling on_free(node) on each. The
  // table is sorted by epoch, so these are a prefix and no segment past
  // it is visited. Returns the number freed.
  template <class OnFree>
  uint64_t sweep_epochs(uint64_t min_epoch,
                        runtime::PoolAllocator::FreeBatch& batch,
                        OnFree&& on_free) noexcept {
    uint64_t freed = 0;
    for (int k = 0; k < nseg_ && seg_[k].epoch < min_epoch; ++k) {
      for (Reclaimable* cur = seg_[k].head; cur != nullptr;) {
        Reclaimable* next = cur->rl_next;
        on_free(cur);
        batch.add(cur);
        cur = next;
      }
      freed += seg_[k].len;
      seg_[k].len = 0;  // compact drops it
    }
    len_ -= freed;
    compact();
    return freed;
  }

  // Marks the segments sweep_batch(…, below) visits covered: a completed
  // handshake covers a node for good, so later sweeps against any newer
  // handshake may free it.
  void cover(uint64_t below) noexcept {
    for (int i = 0; i < nseg_; ++i) {
      if (seg_[i].needs <= below) seg_[i].needs = 0;
    }
    compact();
  }

  // Frees everything unconditionally (domain teardown), batched.
  uint64_t drain() noexcept {
    runtime::PoolAllocator::FreeBatch batch;
    return sweep_batch([](Reclaimable*) { return true; }, batch);
  }

  // Moves every segment of `other` into this list as an open one, keeping
  // its epoch, and leaves `other` empty; returns the number of nodes
  // adopted. Used by the zombie reaper: a dead thread's orphaned retire
  // list rejoins normal sweeps. The caller must guarantee nobody else is
  // touching either list (single-owner rule — the reaper holds the domain
  // reap lock and the old owner is dead).
  uint64_t adopt(RetireList& other) noexcept {
    const uint64_t n = other.len_;
    for (int j = 0; j < other.nseg_; ++j) {
      if (nseg_ == kMaxSegments) merge_oldest();
      int at = nseg_;
      while (at > 0 && seg_[at - 1].epoch > other.seg_[j].epoch) --at;
      for (int i = nseg_; i > at; --i) seg_[i] = seg_[i - 1];
      seg_[at] = other.seg_[j];
      seg_[at].needs = kWhole;
      ++nseg_;
      compact();
    }
    len_ += n;
    other.nseg_ = 0;
    other.len_ = 0;
    other.recount();
    return n;
  }

 private:
  struct Segment {
    Reclaimable* head = nullptr;
    Reclaimable* tail = nullptr;
    uint64_t len = 0;
    uint64_t epoch = 0;
    uint64_t needs = kWhole;
  };

  // Prepends all of `src` to `dst`; `dst` keeps its epoch and needs.
  static void splice(Segment& dst, const Segment& src) noexcept {
    if (src.head == nullptr) return;
    src.tail->rl_next = dst.head;
    if (dst.head == nullptr) dst.tail = src.tail;
    dst.head = src.head;
    dst.len += src.len;
  }

  // Frees a slot: joins the oldest neighbours that share `needs`, or else
  // the two oldest, into one segment with the higher epoch and needs.
  void merge_oldest() noexcept {
    int i = 0;
    while (i + 1 < nseg_ && seg_[i].needs != seg_[i + 1].needs) ++i;
    if (i + 1 == nseg_) i = 0;
    Segment& newer = seg_[i + 1];
    if (seg_[i].needs > newer.needs) newer.needs = seg_[i].needs;
    splice(newer, seg_[i]);
    seg_[i].len = 0;  // compact drops it
    compact();
    overflowed_ = true;
  }

  // Drops empty segments and joins neighbours with equal epoch and needs.
  void compact() noexcept {
    int w = 0;
    for (int r = 0; r < nseg_; ++r) {
      if (seg_[r].len == 0) continue;
      if (w > 0 && seg_[w - 1].epoch == seg_[r].epoch &&
          seg_[w - 1].needs == seg_[r].needs) {
        splice(seg_[w - 1], seg_[r]);
      } else {
        seg_[w++] = seg_[r];
      }
    }
    nseg_ = w;
    recount();
  }

  // Re-derives the two figures the retire path reads on every retire of
  // a publish-on-ping scheme, so it reads them without a table walk.
  void recount() noexcept {
    open_len_ = 0;
    oldest_sealed_ = kWhole;
    for (int i = 0; i < nseg_; ++i) {
      const uint64_t nd = seg_[i].needs;
      if (nd == kWhole) {
        open_len_ += seg_[i].len;
      } else if (nd != 0 && nd - 1 < oldest_sealed_) {
        oldest_sealed_ = nd - 1;
      }
    }
  }

  // Sweeps one segment's chain; survivors stay in it.
  template <class Pred>
  static uint64_t sweep_chain(Segment& s, Pred& can_free,
                              runtime::PoolAllocator::FreeBatch& batch) {
    Reclaimable* head = nullptr;
    Reclaimable* tail = nullptr;
    uint64_t freed = 0;
    for (Reclaimable* cur = s.head; cur != nullptr;) {
      Reclaimable* next = cur->rl_next;
      if (can_free(cur)) {
        batch.add(cur);
        ++freed;
      } else {
        if (head == nullptr) tail = cur;
        cur->rl_next = head;
        head = cur;
      }
      cur = next;
    }
    s.head = head;
    s.tail = tail;
    s.len -= freed;
    return freed;
  }

  Segment seg_[kMaxSegments];
  int nseg_ = 0;
  bool overflowed_ = false;
  uint64_t len_ = 0;
  uint64_t open_len_ = 0;  // nodes in open segments
  uint64_t oldest_sealed_ = kWhole;
};

}  // namespace pop::smr
