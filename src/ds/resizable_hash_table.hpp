// RHHT — dynamically resizable lock-free hash table under SMR, built as a
// split-ordered list (Shalev & Shavit, "Split-Ordered Lists: Lock-Free
// Extensible Hash Tables", JACM'06) over the same reservation discipline
// as HmOps.
//
// Why split order instead of migrating items between bucket arrays: a
// copy-based migration has to re-insert items into the new table, and a
// stalled helper can resurrect a key that was concurrently removed —
// solving that needs per-bucket freeze words or per-item forwarding
// marks. In the split-ordered design the items never move. There is ONE
// ordered lock-free list of all items, ordered by the bit-reversal of
// their hashed keys, and a bucket array is just an index of shortcut
// pointers into it:
//
//   * regular node:  so = reverse64(mix(key)) | 1   (odd)
//   * dummy node:    so = reverse64(bucket)         (even; one per bucket,
//                    lazily inserted, NEVER retired)
//
// Bit reversal puts a key's bucket bits (the LOW bits of mix(key), for a
// power-of-two table) at the TOP of its so-key, so every bucket is a
// contiguous run of the list and bucket b of a 2n-bucket table splits
// bucket b mod n of the n-bucket table in place. A resize therefore only
// swaps the *descriptor*:
//
//   table_ --CAS--> Table{nbuckets, cells[]}        (cells: write-once
//                    pointers to dummy nodes; null = not yet initialized)
//
// The displaced descriptor — a multi-kilobyte bucket array, the bursty
// large-Reclaimable shape this structure exists to exercise — is retired
// as a single Reclaimable through the owning domain. The cells array is
// the trailing bytes of the descriptor's own pool block, so a retired
// table is exactly one block to the batched sweep, the poisoned/UAF
// suites and the leak-balance accounting.
// Readers protect the descriptor with a validated protect() in a slot of
// its own (kSlotTable = 3; the list traversal rotates 0..2 exactly like
// HmOps), so a descriptor is never freed under a traversal that still
// routes through it. Dummies are reachable from every table generation
// and are never retired; after a shrink the orphaned high-bucket dummies
// stay in the list (harmless: they are just extra even so-keys) and are
// re-adopted if the table grows again.
//
// Cooperative incremental migration: there is no migration *thread* —
// an operation that routes to an uninitialized cell initializes it
// (recursively from the bucket's split-parent, insert-if-absent), i.e.
// every operation finishes the resize for exactly the bucket it touches.
//
// Resize policy: per-thread striped size counters (SWMR, summed over the
// registry's live-tid range) are checked every kResizeCheckEvery updates;
// grow doubles when size > nbuckets * load_factor, shrink halves after
// kShrinkStreak consecutive checks below a quarter of that watermark
// (hysteresis so a mixed workload near the boundary does not oscillate).
// The losing racer of a descriptor CAS destroys its unpublished Table.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "ds/kv.hpp"
#include "obs/obs.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/thread_registry.hpp"
#include "runtime/tid_rows.hpp"
#include "smr/checkpoint.hpp"
#include "smr/domain_base.hpp"
#include "smr/smr_config.hpp"
#include "smr/tagged.hpp"

namespace pop::ds {

namespace detail_rhht {

inline uint64_t reverse64(uint64_t x) {
  x = ((x >> 1) & 0x5555555555555555ull) | ((x & 0x5555555555555555ull) << 1);
  x = ((x >> 2) & 0x3333333333333333ull) | ((x & 0x3333333333333333ull) << 2);
  x = ((x >> 4) & 0x0f0f0f0f0f0f0f0full) | ((x & 0x0f0f0f0f0f0f0f0full) << 4);
  return __builtin_bswap64(x);
}

// Fibonacci multiplicative mix (odd multiplier: a bijection, so two keys
// collide in so-space only in the dropped-bit sense handled by the
// (so, key) lexicographic order below).
inline uint64_t mix(uint64_t k) { return k * 0x9e3779b97f4a7c15ull; }

// reverse64(mix)|1 drops mix's bit 63, so two distinct keys CAN share a
// regular so-key; all comparisons are lexicographic on (so, key).
inline uint64_t so_regular(uint64_t k) { return reverse64(mix(k)) | 1; }
inline uint64_t so_dummy(uint64_t bucket) { return reverse64(bucket); }

// Split-parent: the bucket index with its highest set bit cleared.
inline uint64_t parent_bucket(uint64_t i) {
  return i & ~(1ull << (63 - __builtin_clzll(i)));
}

inline uint64_t pow2_at_least(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace detail_rhht

template <class Smr>
class ResizableHashTable {
 public:
  struct Node : Smr::NodeHeader {
    Node(uint64_t so_, uint64_t k, uint64_t v) : so(so_), key(k), val(v) {}
    uint64_t so;   // split-order key; even = dummy (key holds the bucket)
    uint64_t key;
    uint64_t val;  // immutable after publication (replace swaps nodes)
    std::atomic<Node*> next{nullptr};
  };
  // The pool's size classes are fitted to the node: it wastes under 16 B.
  // The size pin makes a field that crosses a size class fail here. The
  // block is 48 B under the 8-B node header, 64 B under an era scheme's
  // 24-B one.
  static_assert(runtime::detail::pool_class_slack(sizeof(Node)) < 16);
  static_assert(runtime::detail::pool_block_bytes(sizeof(Node)) ==
                (smr::kEraHeader<Smr> ? 64 : 48));

  // The CAS-published descriptor. Its cells array (write-once: null ->
  // dummy, never back) lives in the trailing bytes of the same pool
  // block, so retiring a table retires the whole bucket array as one
  // large Reclaimable, one block in the allocated == freed accounting.
  struct Table : Smr::NodeHeader {
    explicit Table(uint64_t n) : nbuckets(n) {
      for (uint64_t i = 0; i < n; ++i) {
        new (&cells()[i]) std::atomic<Node*>(nullptr);
      }
    }
    std::atomic<Node*>* cells() {
      return reinterpret_cast<std::atomic<Node*>*>(this + 1);
    }
    const uint64_t nbuckets;  // always a power of two
  };

  // The list traversal rotates slots 0..2 (HmOps discipline); the table
  // descriptor lives in a slot of its own so it stays protected across
  // the whole operation. Bundled structures use at most 4 of the
  // kMaxSlots = 8 slots, so slot 3 is free by library convention.
  static constexpr int kSlotTable = 3;
  static constexpr uint64_t kMinBuckets = 2;
  static constexpr uint64_t kMaxBuckets = 1ull << 26;
  static constexpr uint64_t kResizeCheckEvery = 64;
  // 4 checks (at 64 updates each, per thread) of sustained underflow
  // before a shrink: a filling-but-still-small table — the first moments
  // of every under-provisioned run — must not thrash descriptors on its
  // way up, while a genuinely drained table still halves within a few
  // hundred updates.
  static constexpr uint32_t kShrinkStreak = 4;

  explicit ResizableHashTable(uint64_t capacity, double load_factor = 6.0,
                              const smr::SmrConfig& cfg = {})
      : smr_(cfg), load_factor_(load_factor > 0 ? load_factor : 6.0) {
    const uint64_t want = static_cast<uint64_t>(
        (static_cast<double>(capacity) + load_factor_ - 1) / load_factor_);
    const uint64_t n = std::clamp<uint64_t>(detail_rhht::pow2_at_least(want),
                                            kMinBuckets, kMaxBuckets);
    head_ = smr_.template create<Node>(detail_rhht::so_dummy(0), 0, 0);
    Table* t = smr_.template create<Table>(
        smr::TailBytes{n * sizeof(std::atomic<Node*>)}, n);
    t->cells()[0].store(head_, std::memory_order_relaxed);
    nbuckets_now_.store(n, std::memory_order_relaxed);
    table_.store(t, std::memory_order_release);
  }

  ~ResizableHashTable() {
    // Quiescent teardown: free the whole list (dummies included), then
    // the current descriptor; descriptors displaced earlier sit on the
    // domain's retire lists and are freed by its drain (smr_ is the
    // first member, so it is destroyed after this body runs).
    smr::destroy_list(head_);
    smr::destroy_unpublished(table_.load(std::memory_order_relaxed));
  }

  bool get(uint64_t k, uint64_t* val_out) {
    typename Smr::Guard g(smr_);
    POPSMR_CHECKPOINT(smr_);  // a neutralization longjmp re-runs from here
    Table* t = smr_.protect(kSlotTable, table_);
    Window w;
    if (!find(bucket_head(t, bucket_of(t, k)), detail_rhht::so_regular(k), k,
              w)) {
      return false;
    }
    if (val_out != nullptr) *val_out = w.curr->val;
    return true;
  }

  bool contains(uint64_t k) { return get(k, nullptr); }

  bool insert(uint64_t k, uint64_t v) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Table* t = smr_.protect(kSlotTable, table_);
    const uint64_t so = detail_rhht::so_regular(k);
    Window w;
    if (find(bucket_head(t, bucket_of(t, k)), so, k, w)) return false;
    if (!try_link(w, so, k, v)) goto retry;
    // The successful link leaves the write phase open (Guard's end_op
    // closes it), so the size bump and any resize it triggers cannot be
    // torn off by a neutralization restart.
    after_update(t, +1);
    return true;
  }

  bool insert(uint64_t k) { return insert(k, k); }

  // Insert-or-replace, HmOps put semantics: mark the displaced node like
  // an erase, then swing prev->next to the fresh node in one CAS; the
  // successful swapper is the unique retirer. Falls back to a fresh
  // insert when a helping traversal steals the unlink in between.
  PutResult put(uint64_t k, uint64_t v) {
    typename Smr::Guard g(smr_);
    // Size accounting is conservation-exact: every successful mark CAS is
    // one logical deletion (-1), the one successful publication is +1 —
    // the rare mark/swap-fail/re-mark path nets -1, not 0, and a drifting
    // stripe sum would slowly inflate the resize policy's size estimate.
    int64_t marks = 0;
  retry:
    POPSMR_CHECKPOINT(smr_);
    Table* t = smr_.protect(kSlotTable, table_);
    const uint64_t so = detail_rhht::so_regular(k);
    Window w;
    if (!find(bucket_head(t, bucket_of(t, k)), so, k, w)) {
      if (!try_link(w, so, k, v)) goto retry;
      after_update(t, 1 - marks);
      return marks > 0 ? PutResult::kReplaced : PutResult::kInserted;
    }
    smr_.enter_write_phase({w.prev, w.curr, w.next});
    Node* expected = w.next;
    if (!w.curr->next.compare_exchange_strong(expected,
                                              smr::with_mark(w.next),
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
      smr_.exit_write_phase();
      goto retry;
    }
    ++marks;
    Node* n = smr_.template create<Node>(so, k, v);
    n->next.store(w.next, std::memory_order_relaxed);
    Node* expc = w.curr;
    if (w.prev->next.compare_exchange_strong(expc, n,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
      smr_.retire(w.curr);
      after_update(t, 1 - marks);
      return PutResult::kReplaced;
    }
    smr::destroy_unpublished(n);
    smr_.exit_write_phase();
    goto retry;
  }

  bool erase(uint64_t k) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Table* t = smr_.protect(kSlotTable, table_);
    Window w;
    if (!find(bucket_head(t, bucket_of(t, k)), detail_rhht::so_regular(k), k,
              w)) {
      return false;
    }
    smr_.enter_write_phase({w.prev, w.curr, w.next});
    Node* expected = w.next;
    if (!w.curr->next.compare_exchange_strong(expected,
                                              smr::with_mark(w.next),
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
      smr_.exit_write_phase();
      goto retry;
    }
    Node* expc = w.curr;
    if (w.prev->next.compare_exchange_strong(expc, w.next,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
      smr_.retire(w.curr);
    }
    after_update(t, -1);
    return true;
  }

  // Quiescent-only helpers.
  uint64_t size_slow() const {
    uint64_t n = 0;
    for (Node* c = smr::strip_mark(head_->next.load(std::memory_order_acquire));
         c != nullptr;
         c = smr::strip_mark(c->next.load(std::memory_order_acquire))) {
      if ((c->so & 1) != 0 &&
          !smr::is_marked(c->next.load(std::memory_order_acquire))) {
        ++n;
      }
    }
    return n;
  }

  uint64_t bucket_count() const {
    return nbuckets_now_.load(std::memory_order_acquire);
  }

  // The resize policy's striped size estimate (racy-but-benign sum).
  // Exposed so tests can assert the estimate tracks the true population:
  // a drifting estimate makes the policy thrash descriptors.
  int64_t size_estimate() const { return approx_size(); }

  ResizeStats resize_stats() const {
    ResizeStats r;
    r.grows = grows_.load(std::memory_order_relaxed);
    r.shrinks = shrinks_.load(std::memory_order_relaxed);
    r.buckets = bucket_count();
    return r;
  }

  Smr& domain() { return smr_; }

  ResizableHashTable(const ResizableHashTable&) = delete;
  ResizableHashTable& operator=(const ResizableHashTable&) = delete;

 private:
  struct Window {
    Node* prev;
    Node* curr;  // first node with (so, key) >= target, or nullptr
    Node* next;
  };

  struct Stripe {
    std::atomic<int64_t> size{0};  // SWMR: written only by the owning tid
    uint64_t tick = 0;
  };

  static uint64_t bucket_of(const Table* t, uint64_t k) {
    return detail_rhht::mix(k) & (t->nbuckets - 1);
  }

  // The bucket's shortcut dummy, initializing the cell on first touch —
  // this IS the cooperative migration step: whichever operation first
  // routes through a fresh (post-grow) cell splits the parent bucket by
  // inserting the dummy, and every operation therefore migrates exactly
  // the bucket it touches. Recursion depth is bounded by log2(nbuckets)
  // (each parent index clears the top bit). Cells are write-once, and
  // the dummy for a given so-key is unique for all time (insert-if-
  // absent, never retired), so a lost cells-CAS race always installed
  // the same pointer.
  Node* bucket_head(Table* t, uint64_t b) {
    Node* d = t->cells()[b].load(std::memory_order_acquire);
    if (d != nullptr) return d;
    Node* p = bucket_head(t, detail_rhht::parent_bucket(b));
    const uint64_t so = detail_rhht::so_dummy(b);
    for (;;) {
      Window w;
      if (find(p, so, b, w)) {
        d = w.curr;
        break;
      }
      smr_.enter_write_phase({w.prev, w.curr});
      Node* n = smr_.template create<Node>(so, b, 0);
      n->next.store(w.curr, std::memory_order_relaxed);
      Node* expected = w.curr;
      if (w.prev->next.compare_exchange_strong(expected, n,
                                               std::memory_order_release,
                                               std::memory_order_relaxed)) {
        // Unlike a data link, a dummy link happens mid-operation: close
        // the write phase (re-arming the read phase) — a neutralization
        // restart re-finds this dummy, so the link is idempotent.
        smr_.exit_write_phase();
        d = n;
        break;
      }
      smr::destroy_unpublished(n);
      smr_.exit_write_phase();
    }
    Node* expected = nullptr;
    t->cells()[b].compare_exchange_strong(expected, d,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
    return t->cells()[b].load(std::memory_order_acquire);
  }

  // HmOps::find with (so, key) lexicographic comparisons. `head` is a
  // dummy node: never marked, never retired, so the retry label is safe
  // to re-enter without a fresh protect.
  bool find(Node* head, uint64_t so, uint64_t key, Window& w) {
  retry:
    int sp = 0, sc = 1, sn = 2;
    Node* prev = head;
    Node* curr = smr_.protect(sc, head->next);
    for (;;) {
      if (curr == nullptr) {
        w = {prev, nullptr, nullptr};
        return false;
      }
      Node* next_raw = smr_.protect(sn, curr->next);
      if (smr::is_marked(next_raw)) {
        Node* next = smr::strip_mark(next_raw);
        smr_.enter_write_phase({prev, curr, next});
        Node* expected = curr;
        if (prev->next.compare_exchange_strong(expected, next,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
          smr_.retire(curr);  // unique retirer: the successful unlinker
          smr_.exit_write_phase();
        } else {
          smr_.exit_write_phase();
          goto retry;
        }
        curr = smr_.protect(sc, prev->next);
        if (smr::is_marked(curr)) goto retry;
        continue;
      }
      if (curr->so > so || (curr->so == so && curr->key >= key)) {
        w = {prev, curr, next_raw};
        return curr->so == so && curr->key == key;
      }
      prev = curr;
      curr = next_raw;
      const int t = sp;
      sp = sc;
      sc = sn;
      sn = t;
    }
  }

  // Links a fresh regular node into window `w`. On success the write
  // phase stays open for the Guard's end_op (HmOps contract).
  bool try_link(Window& w, uint64_t so, uint64_t key, uint64_t val) {
    smr_.enter_write_phase({w.prev, w.curr});
    Node* n = smr_.template create<Node>(so, key, val);
    n->next.store(w.curr, std::memory_order_relaxed);
    Node* expected = w.curr;
    if (w.prev->next.compare_exchange_strong(expected, n,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
      return true;
    }
    smr::destroy_unpublished(n);
    smr_.exit_write_phase();
    return false;
  }

  int64_t approx_size() const {
    int64_t n = 0;
    stripe_.for_each([&n](int, const Stripe& s) {
      n += s.size.load(std::memory_order_relaxed);
    });
    return n > 0 ? n : 0;
  }

  // Called by every successful update while its write phase is still
  // open: the stripe bump is unconditional, the policy check runs every
  // kResizeCheckEvery updates per thread.
  void after_update(Table* t, int64_t delta) {
    Stripe& s = stripe_.get(runtime::my_tid());
    if (delta != 0) {
      s.size.store(s.size.load(std::memory_order_relaxed) + delta,
                   std::memory_order_relaxed);
    }
    if (++s.tick % kResizeCheckEvery != 0) return;
    maybe_resize(t);
  }

  void maybe_resize(Table* t) {
    if (table_.load(std::memory_order_acquire) != t) return;  // stale view
    const uint64_t n = t->nbuckets;
    const double watermark = static_cast<double>(n) * load_factor_;
    const int64_t sz = approx_size();
    uint64_t want = 0;
    if (static_cast<double>(sz) > watermark && n < kMaxBuckets) {
      want = n * 2;
      shrink_streak_.store(0, std::memory_order_relaxed);
    } else if (n > kMinBuckets &&
               static_cast<double>(sz) * 4.0 < watermark) {
      // Sustained underflow only: one quiet check is not a trend.
      if (shrink_streak_.fetch_add(1, std::memory_order_relaxed) + 1 <
          kShrinkStreak) {
        return;
      }
      shrink_streak_.store(0, std::memory_order_relaxed);
      want = n / 2;
    } else {
      shrink_streak_.store(0, std::memory_order_relaxed);
      return;
    }
    // Re-reserve {t} for the descriptor copy below: under NBR the caller
    // is in a write phase with only its list operands published, and a
    // concurrent resizer may retire t the moment its own CAS lands. The
    // mutation that brought us here is already complete, so replacing
    // the operand set is safe; the phase itself stays open (no exit
    // until the Guard's end_op), keeping the copy un-neutralizable.
    smr_.enter_write_phase({t});
    Table* nt = smr_.template create<Table>(
        smr::TailBytes{want * sizeof(std::atomic<Node*>)}, want);
    const uint64_t keep = std::min(n, want);
    for (uint64_t i = 0; i < keep; ++i) {
      // Snapshot the shortcut index. A cell initialized concurrently
      // after the copy is re-derived lazily in the new table (the dummy
      // is already in the list; bucket_head just re-finds it).
      nt->cells()[i].store(t->cells()[i].load(std::memory_order_acquire),
                           std::memory_order_relaxed);
    }
    Table* expected = t;
    if (table_.compare_exchange_strong(expected, nt,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      nbuckets_now_.store(want, std::memory_order_release);
      if (want > n) {
        grows_.fetch_add(1, std::memory_order_relaxed);
      } else {
        shrinks_.fetch_add(1, std::memory_order_relaxed);
      }
      if (obs::trace_on()) {  // arg: the published bucket count
        obs::trace_event(obs::TraceKind::kResizePublish, obs::now_ns(), 0,
                         static_cast<uint32_t>(
                             want > UINT32_MAX ? UINT32_MAX : want));
      }
      smr_.retire(t);  // one large Reclaimable: the whole bucket array
    } else {
      smr::destroy_unpublished(nt);  // lost the descriptor race
    }
  }

  Smr smr_;  // declared first: destroyed last (drains retired descriptors)
  double load_factor_;
  std::atomic<Table*> table_{nullptr};
  Node* head_;  // bucket 0's dummy; shared by every table generation
  std::atomic<uint64_t> nbuckets_now_{0};  // reporting-only mirror
  std::atomic<uint64_t> grows_{0};
  std::atomic<uint64_t> shrinks_{0};
  std::atomic<uint32_t> shrink_streak_{0};
  runtime::TidRows<Stripe> stripe_;  // a thread's row: its first update
};

}  // namespace pop::ds
