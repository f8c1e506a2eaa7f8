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
// HmOps exposes the algorithm over an external head so the hash table can
// reuse it bucket-wise with a single shared reclamation domain.
#pragma once

#include <atomic>
#include <cstdint>

#include "ds/kv.hpp"
#include "runtime/pool_alloc.hpp"
#include "smr/checkpoint.hpp"
#include "smr/domain_base.hpp"
#include "smr/smr_config.hpp"
#include "smr/tagged.hpp"

namespace pop::ds {

template <class Smr>
struct HmOps {
  struct Node : smr::Reclaimable {
    explicit Node(uint64_t k, uint64_t v = 0) : key(k), val(v) {}
    uint64_t key;
    uint64_t val;  // immutable after publication (replace swaps nodes)
    std::atomic<Node*> next{nullptr};
  };
  // The pool's size classes are fitted to the node: it wastes under 16 B.
  // The size pin makes a field that crosses a size class fail here.
  static_assert(runtime::detail::pool_class_slack(sizeof(Node)) < 16);
  static_assert(sizeof(Node) == 48);

  static constexpr int kSlotPrev = 0;
  static constexpr int kSlotCurr = 1;
  static constexpr int kSlotNext = 2;

  struct Window {
    Node* prev;  // last node with key < target (or head sentinel)
    Node* curr;  // first node with key >= target, or nullptr
    Node* next;  // curr->next (unmarked) when curr != nullptr
  };

  // Locates the window for `key`, helping to unlink marked nodes along the
  // way. Postconditions: prev/curr/next reserved (in rotating slots), the
  // prev->curr edge was observed unmarked, curr (if any) was observed
  // logically present. Returns true iff curr holds `key`.
  //
  // Slot roles *rotate* on advance instead of copying reservations: the
  // node entering the prev role already owns a reservation from when it
  // was curr, so an advance costs zero extra slot stores — keeping the
  // hot loop at exactly one protect() per hop, which is what the paper's
  // per-read-fence comparison isolates.
  static bool find(Smr& smr, Node* head, uint64_t key, Window& w) {
  retry:
    int sp = kSlotPrev, sc = kSlotCurr, sn = kSlotNext;
    Node* prev = head;  // sentinel: never marked, never retired
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
  static bool get(Smr& smr, Node* head, uint64_t key, uint64_t* val_out) {
    typename Smr::Guard g(smr);
    POPSMR_CHECKPOINT(smr);  // a neutralization longjmp re-runs find
    Window w;
    if (!find(smr, head, key, w)) return false;
    if (val_out != nullptr) *val_out = w.curr->val;
    return true;
  }

  static bool contains(Smr& smr, Node* head, uint64_t key) {
    return get(smr, head, key, nullptr);
  }

  // Links a fresh (key, val) node into window `w` (which observed the key
  // absent). True on success, leaving the write phase open for the
  // Guard's end_op; false (phase exited, node destroyed) to re-find.
  static bool try_link(Smr& smr, Window& w, uint64_t key, uint64_t val) {
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

  static bool insert(Smr& smr, Node* head, uint64_t key, uint64_t val) {
    typename Smr::Guard g(smr);
  retry:
    POPSMR_CHECKPOINT(smr);
    Window w;
    if (find(smr, head, key, w)) return false;
    if (!try_link(smr, w, key, val)) goto retry;
    return true;
  }

  // Insert-or-replace. A replace marks the old node exactly like erase
  // (so it wins or loses the key's mark against concurrent erasers /
  // replacers — never both), then swaps prev->next from the marked node
  // to the fresh one in one CAS: unlink + insert are atomic, and the
  // swapper is the unique retirer of the displaced node. If a helping
  // traversal unlinks (and retires) the marked node first, the swap CAS
  // fails and the put falls back to a fresh insert on retry.
  static PutResult put(Smr& smr, Node* head, uint64_t key, uint64_t val) {
    typename Smr::Guard g(smr);
    bool displaced = false;  // a previous iteration marked out the old value
  retry:
    POPSMR_CHECKPOINT(smr);
    Window w;
    if (!find(smr, head, key, w)) {
      if (!try_link(smr, w, key, val)) goto retry;
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
    Node* n = smr.template create<Node>(key, val);
    n->next.store(w.next, std::memory_order_relaxed);
    Node* expc = w.curr;
    if (w.prev->next.compare_exchange_strong(expc, n,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
      smr.retire(w.curr);  // unique retirer: the successful swapper
      return PutResult::kReplaced;
    }
    // A helper unlinked (and retired) the marked node under us; the key
    // is momentarily absent — reinsert the new value from scratch.
    smr::destroy_unpublished(n);
    smr.exit_write_phase();
    goto retry;
  }

  static bool erase(Smr& smr, Node* head, uint64_t key) {
    typename Smr::Guard g(smr);
  retry:
    POPSMR_CHECKPOINT(smr);
    Window w;
    if (!find(smr, head, key, w)) return false;
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
    uint64_t last = 0;
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
