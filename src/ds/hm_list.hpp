// Harris-Michael lock-free linked-list map (HML) — Michael, PODC'02 — the
// paper's list workhorse (Figure 2a, Figure 4, appendix Figures 8/10),
// promoted to carry a value per node.
//
// Written against the uniform SMR policy interface, so the same code runs
// under HP, HPAsym, HE, EBR, IBR, NBR+, BRC and the three POP schemes —
// the executable form of the paper's "drop-in replacement" claim.
//
// Reservation discipline (slots: 0=prev, 1=curr, 2=next):
//  * every hop protects the next node via the validated protect() read;
//  * logical deletion sets the mark bit in curr->next; traversals help
//    unlink marked nodes, and the thread whose unlink CAS succeeds is the
//    unique retirer;
//  * under NBR, traversals run in the read phase (checkpoint at the top of
//    each operation) and every CAS runs in a write phase with its operands
//    reserved first.
//
// Values are immutable after publication: put() on an existing key never
// writes the old node — it marks the old node (the erase mark, winning
// against concurrent erasers) and then swings prev->next from the old
// node to a fresh one in a single CAS, retiring the displaced node as the
// unique unlinker. The common path is therefore one mark + one swap; if a
// helping traversal steals the unlink between the two CASes, the put
// degrades to a fresh insert (the replace then linearizes as a deletion
// immediately followed by an insertion).
//
// HmOps is the one Harris-Michael list of the library. It runs over an
// external head and is templated on its ordering key, so three structures
// share it with a single reclamation domain each:
//  * HML and HMHT order by the 64-bit key itself (one list; one list per
//    bucket sentinel);
//  * RHHT orders its single split-ordered list by a (so, key) pair —
//    any totally ordered key type with == works.
// Each op takes its head either as a sentinel pointer (HML, HMHT) or as
// a callable, run after every checkpoint, that returns the node to
// search from (RHHT's protects its table descriptor and routes to the
// bucket's dummy). Update ops take an optional hook that receives a
// successful update's size delta while its write phase is still open
// (RHHT's keeps its size stripes and resize policy).
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "ds/kv.hpp"
#include "runtime/pool_alloc.hpp"
#include "smr/checkpoint.hpp"
#include "smr/domain_base.hpp"
#include "smr/smr_config.hpp"
#include "smr/tagged.hpp"

namespace pop::ds {

template <class Smr, class Key = uint64_t>
struct HmOps {
  struct Node : Smr::NodeHeader {
    explicit Node(Key k, uint64_t v = 0) : key(k), val(v) {}
    Key key;
    uint64_t val;  // immutable after publication (replace swaps nodes)
    std::atomic<Node*> next{nullptr};
  };
  // The pool's size classes are fitted to the node: it wastes under 16 B.
  // The size pin makes a field that crosses a size class fail here. The
  // 64-bit-key block is 32 B under the 8-B node header, 48 B under an era
  // scheme's 24-B one (RHHT pins its pair-key node itself).
  static_assert(runtime::detail::pool_class_slack(sizeof(Node)) < 16);
  static_assert(!std::is_same_v<Key, uint64_t> ||
                runtime::detail::pool_block_bytes(sizeof(Node)) ==
                    (smr::kEraHeader<Smr> ? 48 : 32));

  static constexpr int kSlotPrev = 0;
  static constexpr int kSlotCurr = 1;
  static constexpr int kSlotNext = 2;

  struct Window {
    Node* prev;  // last node with key < target (or head sentinel)
    Node* curr;  // first node with key >= target, or nullptr
    Node* next;  // curr->next (unmarked) when curr != nullptr
  };

  // An op's `head` is the node its searches start from: a sentinel that
  // never moves (HML, HMHT's buckets) or a callable that returns one,
  // run after every checkpoint (RHHT's routes through its descriptor).
  template <class Head>
  static Node* head_of(Head& head) {
    if constexpr (std::is_same_v<Head, Node*>) {
      return head;
    } else {
      return head();
    }
  }

  // Locates the window for `key`, helping to unlink marked nodes along the
  // way. Postconditions: prev/curr/next reserved (in rotating slots), the
  // prev->curr edge was observed unmarked, curr (if any) was observed
  // logically present. Returns true iff curr holds `key`. `head` is never
  // marked and never retired (a sentinel or a split-order dummy), so the
  // retry label re-enters it without a fresh protect.
  //
  // Slot roles *rotate* on advance instead of copying reservations: the
  // node entering the prev role already owns a reservation from when it
  // was curr, so an advance costs zero extra slot stores — keeping the
  // hot loop at exactly one protect() per hop, which is what the paper's
  // per-read-fence comparison isolates.
  static bool find(Smr& smr, Node* head, Key key, Window& w) {
  retry:
    int sp = kSlotPrev, sc = kSlotCurr, sn = kSlotNext;
    Node* prev = head;
    Node* curr = smr.protect(sc, head->next);
    for (;;) {
      if (curr == nullptr) {
        w = {prev, nullptr, nullptr};
        return false;
      }
      Node* next_raw = smr.protect(sn, curr->next);
      if (smr::is_marked(next_raw)) {
        // curr is logically deleted: help unlink it. The CAS is a write,
        // so NBR needs the operands reserved and neutralization masked.
        Node* next = smr::strip_mark(next_raw);
        smr.enter_write_phase({prev, curr, next});
        Node* expected = curr;
        if (prev->next.compare_exchange_strong(expected, next,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
          smr.retire(curr);  // unique retirer: the successful unlinker
          smr.exit_write_phase();
        } else {
          smr.exit_write_phase();
          goto retry;  // window changed under us
        }
        curr = smr.protect(sc, prev->next);
        if (smr::is_marked(curr)) goto retry;  // prev got deleted
        continue;
      }
      if (curr->key >= key) {
        w = {prev, curr, next_raw};
        return curr->key == key;
      }
      prev = curr;
      curr = next_raw;
      const int t = sp;  // rotate roles; old prev's reservation is dropped
      sp = sc;
      sc = sn;
      sn = t;
    }
  }

  // get: the node's value is immutable after publication, so once find()
  // validated curr's reservation the plain read is safe and untorn.
  template <class Head>
  static bool get(Smr& smr, Head head, Key key, uint64_t* val_out) {
    typename Smr::Guard g(smr);
    POPSMR_CHECKPOINT(smr);  // a neutralization longjmp re-runs find
    Window w;
    if (!find(smr, head_of(head), key, w)) return false;
    if (val_out != nullptr) *val_out = w.curr->val;
    return true;
  }

  template <class Head>
  static bool contains(Smr& smr, Head head, Key key) {
    return get(smr, head, key, nullptr);
  }

  // Links a fresh (key, val) node into window `w` (which observed the key
  // absent). True on success, leaving the write phase open for the
  // Guard's end_op; false (phase exited, node destroyed) to re-find.
  static bool try_link(Smr& smr, Window& w, Key key, uint64_t val) {
    smr.enter_write_phase({w.prev, w.curr});
    Node* n = smr.template create<Node>(key, val);
    n->next.store(w.curr, std::memory_order_relaxed);
    Node* expected = w.curr;
    if (w.prev->next.compare_exchange_strong(expected, n,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
      return true;
    }
    smr::destroy_unpublished(n);
    smr.exit_write_phase();
    return false;
  }

  // The update ops take at most one `on_update` hook (RHHT's). It is a
  // parameter pack so that HML and HMHT, which pass none, get no extra
  // parameter: even an empty one changes how the compiler clones and
  // inlines their ops.
  template <class Head, class... OnUpdate>
  static bool insert(Smr& smr, Head head, Key key, uint64_t val,
                     OnUpdate... on_update) {
    typename Smr::Guard g(smr);
  retry:
    POPSMR_CHECKPOINT(smr);
    Window w;
    if (find(smr, head_of(head), key, w)) return false;
    if (!try_link(smr, w, key, val)) goto retry;
    (on_update(+1), ...);
    return true;
  }

  // Insert-or-replace. A replace marks the old node exactly like erase
  // (so it wins or loses the key's mark against concurrent erasers /
  // replacers — never both), then swaps prev->next from the marked node
  // to the fresh one in one CAS: unlink + insert are atomic, and the
  // swapper is the unique retirer of the displaced node. If a helping
  // traversal unlinks (and retires) the marked node first, the swap CAS
  // fails and the put falls back to a fresh insert on retry.
  //
  // The size delta it reports is conservation-exact: every successful
  // mark is one logical deletion (-1) and the one publication is +1, so
  // the rare mark/swap-fail/re-mark path nets -1, not 0.
  template <class Head, class... OnUpdate>
  static PutResult put(Smr& smr, Head head, Key key, uint64_t val,
                       OnUpdate... on_update) {
    typename Smr::Guard g(smr);
    bool displaced = false;  // a previous iteration marked out the old value
    int64_t marks = 0;       // successful marks, for the size delta
  retry:
    POPSMR_CHECKPOINT(smr);
    Window w;
    if (!find(smr, head_of(head), key, w)) {
      if (!try_link(smr, w, key, val)) goto retry;
      (on_update(1 - marks), ...);
      return displaced ? PutResult::kReplaced : PutResult::kInserted;
    }
    smr.enter_write_phase({w.prev, w.curr, w.next});
    // Mark the node we are displacing (same CAS as erase's logical
    // deletion; only one marker ever wins a given node).
    Node* expected = w.next;
    if (!w.curr->next.compare_exchange_strong(expected,
                                              smr::with_mark(w.next),
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
      smr.exit_write_phase();
      goto retry;
    }
    displaced = true;
    ++marks;
    Node* n = smr.template create<Node>(key, val);
    n->next.store(w.next, std::memory_order_relaxed);
    Node* expc = w.curr;
    if (w.prev->next.compare_exchange_strong(expc, n,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
      smr.retire(w.curr);  // unique retirer: the successful swapper
      (on_update(1 - marks), ...);
      return PutResult::kReplaced;
    }
    // A helper unlinked (and retired) the marked node under us; the key
    // is momentarily absent — reinsert the new value from scratch.
    smr::destroy_unpublished(n);
    smr.exit_write_phase();
    goto retry;
  }

  template <class Head, class... OnUpdate>
  static bool erase(Smr& smr, Head head, Key key, OnUpdate... on_update) {
    typename Smr::Guard g(smr);
  retry:
    POPSMR_CHECKPOINT(smr);
    Window w;
    if (!find(smr, head_of(head), key, w)) return false;
    smr.enter_write_phase({w.prev, w.curr, w.next});
    // Logical deletion: mark curr->next.
    Node* expected = w.next;
    if (!w.curr->next.compare_exchange_strong(expected,
                                              smr::with_mark(w.next),
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
      smr.exit_write_phase();
      goto retry;
    }
    // Physical unlink, best effort; a failed CAS means some traversal will
    // (or already did) unlink and retire it for us.
    Node* expc = w.curr;
    if (w.prev->next.compare_exchange_strong(expc, w.next,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
      smr.retire(w.curr);
    }
    (on_update(-1), ...);
    return true;
  }

  // Quiescent-only helpers (tests, teardown).
  static uint64_t size_slow(Node* head) {
    uint64_t n = 0;
    for (Node* c = smr::strip_mark(head->next.load(std::memory_order_acquire));
         c != nullptr;
         c = smr::strip_mark(c->next.load(std::memory_order_acquire))) {
      if (!smr::is_marked(c->next.load(std::memory_order_acquire))) ++n;
    }
    return n;
  }

  static bool sorted_unique_slow(Node* head) {
    Key last{};
    bool first = true;
    for (Node* c = smr::strip_mark(head->next.load(std::memory_order_acquire));
         c != nullptr;
         c = smr::strip_mark(c->next.load(std::memory_order_acquire))) {
      if (!first && c->key <= last) return false;
      last = c->key;
      first = false;
    }
    return true;
  }
};

// The standalone list map (also usable as a set via the key-only shims).
template <class Smr>
class HmList {
 public:
  using Ops = HmOps<Smr>;
  using Node = typename Ops::Node;

  explicit HmList(const smr::SmrConfig& cfg = {}) : smr_(cfg) {
    head_ = smr_.template create<Node>(0);
  }
  ~HmList() { smr::destroy_list(head_); }

  bool get(uint64_t k, uint64_t* val_out) {
    return Ops::get(smr_, head_, k, val_out);
  }
  PutResult put(uint64_t k, uint64_t v) { return Ops::put(smr_, head_, k, v); }
  bool contains(uint64_t k) { return Ops::contains(smr_, head_, k); }
  bool insert(uint64_t k, uint64_t v) { return Ops::insert(smr_, head_, k, v); }
  bool insert(uint64_t k) { return insert(k, k); }
  bool erase(uint64_t k) { return Ops::erase(smr_, head_, k); }

  uint64_t size_slow() const { return Ops::size_slow(head_); }
  bool sorted_unique_slow() const { return Ops::sorted_unique_slow(head_); }

  Smr& domain() { return smr_; }

  HmList(const HmList&) = delete;
  HmList& operator=(const HmList&) = delete;

 private:
  Smr smr_;  // declared first: destroyed last (drains retire lists)
  Node* head_;
};

}  // namespace pop::ds
