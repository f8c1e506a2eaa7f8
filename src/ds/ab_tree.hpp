// ABT — (a,b)-tree with copy-on-write leaves and preemptive splits,
// standing in for Brown's LLX/SCX (a,b)-tree (Figures 1c, 3a, 5; see
// "Substitutions" under the scheme table in README.md).
//
// What the SMR evaluation needs from this tree is preserved exactly:
// every successful update retires at least one node (the replaced leaf),
// splits retire internal nodes, and traversals are lock-free reads over
// nodes that may be retired mid-flight.
//
// Design:
//  * Leaves are immutable after publication: an update builds a new leaf
//    and swings one child pointer, retiring the old leaf. Readers holding
//    a superseded leaf linearize at the moment they read the child edge.
//  * Internal nodes are mutated in place under a per-node spinlock, with
//    a seqlock version so lock-free readers detect torn key/child arrays
//    and retry. Retired internals carry a `marked` flag readers check.
//  * Splits are preemptive (split a full child while descending, holding
//    only parent+child locks), so a leaf split always finds room in its
//    parent; no merges — underfull/empty leaves are tolerated, bounded by
//    the key range.
//  * A never-retired sentinel (`anchor`, zero keys) sits above the real
//    root so root splits are a one-pointer swing.
//
// Slots: 0 = parent, 1 = current, 2 = descent scratch.
#pragma once

#include <atomic>
#include <cstdint>

#include "ds/kv.hpp"
#include "runtime/backoff.hpp"
#include "runtime/spinlock.hpp"
#include "smr/checkpoint.hpp"
#include "smr/domain_base.hpp"
#include "smr/tagged.hpp"

namespace pop::ds {

template <class Smr>
class AbTree {
 public:
  static constexpr int kMaxKeys = 7;  // b; leaves/internals split beyond this

  explicit AbTree(const smr::SmrConfig& cfg = {}) : smr_(cfg) {
    anchor_ = smr_.template create<Internal>();
    Leaf* empty = smr_.template create<Leaf>();
    anchor_->children[0].store(empty, std::memory_order_relaxed);
  }

  ~AbTree() { destroy_rec(anchor_); }

  bool get(uint64_t key, uint64_t* val_out) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Desc d;
    if (!descend(key, /*preemptive_split=*/false, d)) goto retry;
    const int i = leaf_index_of(d.leaf, key);
    if (i < 0) return false;
    // Leaves are immutable after publication: a superseded leaf's value
    // is the pre-replacement mapping, linearized at the child-edge read.
    if (val_out != nullptr) *val_out = d.leaf->vals[i];
    return true;
  }

  bool contains(uint64_t key) { return get(key, nullptr); }

  bool insert(uint64_t key, uint64_t val) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Desc d;
    if (!descend(key, /*preemptive_split=*/true, d)) goto retry;
    if (leaf_contains(d.leaf, key)) return false;
    if (!add_to_leaf(d, key, val)) goto retry;
    return true;
  }

  bool insert(uint64_t key) { return insert(key, key); }

  PutResult put(uint64_t key, uint64_t val) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Desc d;
    if (!descend(key, /*preemptive_split=*/true, d)) goto retry;
    if (leaf_contains(d.leaf, key)) {
      // Replace: copy-on-write the leaf with the new value and swing one
      // child pointer — the same publication step every update uses.
      smr_.enter_write_phase({d.parent, d.leaf});
      d.parent->lock.lock();
      const int j = child_index_of(d.parent, d.leaf);
      if (j < 0 || d.parent->marked.load(std::memory_order_acquire)) {
        d.parent->lock.unlock();
        smr_.exit_write_phase();
        goto retry;
      }
      Leaf* nl = leaf_copy_replace(d.leaf, key, val);
      d.parent->children[j].store(nl, std::memory_order_release);
      d.parent->lock.unlock();
      smr_.retire(d.leaf);
      return PutResult::kReplaced;
    }
    if (!add_to_leaf(d, key, val)) goto retry;
    return PutResult::kInserted;
  }

  bool erase(uint64_t key) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Desc d;
    if (!descend(key, /*preemptive_split=*/false, d)) goto retry;
    if (!leaf_contains(d.leaf, key)) return false;

    smr_.enter_write_phase({d.parent, d.leaf});
    d.parent->lock.lock();
    const int j = child_index_of(d.parent, d.leaf);
    if (j < 0 || d.parent->marked.load(std::memory_order_acquire)) {
      d.parent->lock.unlock();
      smr_.exit_write_phase();
      goto retry;
    }
    Leaf* nl = leaf_copy_erase(d.leaf, key);
    d.parent->children[j].store(nl, std::memory_order_release);
    d.parent->lock.unlock();
    smr_.retire(d.leaf);
    return true;
  }

  uint64_t size_slow() const { return count_rec(anchor_); }
  Smr& domain() { return smr_; }

  AbTree(const AbTree&) = delete;
  AbTree& operator=(const AbTree&) = delete;

 private:
  struct NodeBase : smr::Reclaimable {
    explicit NodeBase(bool is_leaf) : leaf(is_leaf) {}
    const bool leaf;
  };

  // Immutable after publication.
  struct Leaf : NodeBase {
    Leaf() : NodeBase(true) {}
    uint32_t nkeys = 0;
    uint64_t keys[kMaxKeys] = {};
    uint64_t vals[kMaxKeys] = {};  // vals[i] maps keys[i]
  };

  struct Internal : NodeBase {
    Internal() : NodeBase(false) {}
    runtime::Spinlock lock;
    std::atomic<bool> marked{false};
    std::atomic<uint64_t> version{0};  // seqlock: odd while mutating
    std::atomic<uint32_t> nkeys{0};
    std::atomic<uint64_t> keys[kMaxKeys] = {};
    std::atomic<NodeBase*> children[kMaxKeys + 1] = {};
  };

  static constexpr int kSlotPar = 0;
  static constexpr int kSlotCur = 1;
  static constexpr int kSlotTmp = 2;

  struct Desc {
    Internal* parent;  // last internal (or the anchor)
    Leaf* leaf;
  };

  // Adds (key, val) to d.leaf by copy-on-write (splitting a full leaf).
  // Returns false when validation failed and the caller must re-descend;
  // on success the write phase is left open for the Guard to close.
  bool add_to_leaf(Desc& d, uint64_t key, uint64_t val) {
    smr_.enter_write_phase({d.parent, d.leaf});
    d.parent->lock.lock();
    const int j = child_index_of(d.parent, d.leaf);
    if (j < 0 || d.parent->marked.load(std::memory_order_acquire)) {
      d.parent->lock.unlock();
      smr_.exit_write_phase();
      return false;
    }
    if (d.leaf->nkeys < kMaxKeys) {
      Leaf* nl = leaf_copy_insert(d.leaf, key, val);
      d.parent->children[j].store(nl, std::memory_order_release);
      d.parent->lock.unlock();
      smr_.retire(d.leaf);
      return true;
    }
    // Leaf split. Preemptive splitting guarantees room in the parent
    // unless a concurrent insert filled it since our descent.
    if (d.parent != anchor_ && d.parent->nkeys.load(std::memory_order_relaxed)
        >= static_cast<uint32_t>(kMaxKeys)) {
      d.parent->lock.unlock();
      smr_.exit_write_phase();
      return false;  // the next descent will split this parent
    }
    uint64_t sep;
    Leaf *l1, *l2;
    leaf_split_insert(d.leaf, key, val, sep, l1, l2);
    if (d.parent == anchor_) {
      Internal* nr = smr_.template create<Internal>();
      nr->nkeys.store(1, std::memory_order_relaxed);
      nr->keys[0].store(sep, std::memory_order_relaxed);
      nr->children[0].store(l1, std::memory_order_relaxed);
      nr->children[1].store(l2, std::memory_order_relaxed);
      anchor_->children[0].store(nr, std::memory_order_release);
    } else {
      internal_insert_sep(d.parent, j, sep, l1, l2);
    }
    d.parent->lock.unlock();
    smr_.retire(d.leaf);
    return true;
  }

  // ---- seqlock-validated internal read ------------------------------------

  // Reads the routing decision for `key` at internal `in`. Returns the
  // child (protected in slot `slot`) or nullptr if `in` is marked (caller
  // restarts from the root).
  NodeBase* read_child(Internal* in, uint64_t key, int slot) {
    runtime::Backoff bo(256);
    for (;;) {
      const uint64_t v1 = in->version.load(std::memory_order_acquire);
      if (v1 & 1) {  // writer in progress
        bo.pause();
        continue;
      }
      if (in->marked.load(std::memory_order_acquire)) return nullptr;
      const uint32_t nk = in->nkeys.load(std::memory_order_relaxed);
      uint32_t idx = 0;
      while (idx < nk &&
             key >= in->keys[idx].load(std::memory_order_relaxed)) {
        ++idx;
      }
      NodeBase* child = smr_.protect(slot, in->children[idx]);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (in->version.load(std::memory_order_relaxed) == v1 &&
          child != nullptr) {
        return child;
      }
      bo.pause();
    }
  }

  // Descends to the leaf for `key`, optionally splitting full internal
  // nodes on the way (insert path). Returns false to request a restart.
  // Reservation slots rotate on descent: the node entering the parent
  // role keeps the reservation it acquired as the current node.
  bool descend(uint64_t key, bool preemptive_split, Desc& d) {
    int spar = kSlotPar, scur = kSlotCur, stmp = kSlotTmp;
    Internal* parent = anchor_;  // never marked, never retired
    NodeBase* cur = smr_.protect(scur, anchor_->children[0]);
    while (!cur->leaf) {
      Internal* in = static_cast<Internal*>(cur);
      if (preemptive_split &&
          in->nkeys.load(std::memory_order_acquire) >=
              static_cast<uint32_t>(kMaxKeys)) {
        split_internal(parent, in);  // restart regardless of outcome
        return false;
      }
      NodeBase* child = read_child(in, key, stmp);
      if (child == nullptr) return false;  // `in` was retired
      parent = in;
      cur = child;
      const int t = spar;  // rotate roles
      spar = scur;
      scur = stmp;
      stmp = t;
    }
    d = {parent, static_cast<Leaf*>(cur)};
    return true;
  }

  // Splits full internal `child` under `parent`'s lock (anchor handled as
  // a root swing). Both new halves are fresh nodes; `child` is marked and
  // retired.
  void split_internal(Internal* parent, Internal* child) {
    smr_.enter_write_phase({parent, child});
    parent->lock.lock();
    const int j = child_index_of(parent, child);
    if (j < 0 || parent->marked.load(std::memory_order_acquire) ||
        child->nkeys.load(std::memory_order_acquire) <
            static_cast<uint32_t>(kMaxKeys) ||
        (parent != anchor_ &&
         parent->nkeys.load(std::memory_order_relaxed) >=
             static_cast<uint32_t>(kMaxKeys))) {
      parent->lock.unlock();
      smr_.exit_write_phase();
      return;  // stale view or no room: caller restarts and re-evaluates
    }
    child->lock.lock();
    // Move the middle key up; children split around it.
    const int mid = kMaxKeys / 2;
    const uint64_t sep = child->keys[mid].load(std::memory_order_relaxed);
    Internal* c1 = smr_.template create<Internal>();
    Internal* c2 = smr_.template create<Internal>();
    c1->nkeys.store(mid, std::memory_order_relaxed);
    for (int i = 0; i < mid; ++i) {
      c1->keys[i].store(child->keys[i].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
    for (int i = 0; i <= mid; ++i) {
      c1->children[i].store(
          child->children[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    const int rcount = kMaxKeys - mid - 1;
    c2->nkeys.store(rcount, std::memory_order_relaxed);
    for (int i = 0; i < rcount; ++i) {
      c2->keys[i].store(
          child->keys[mid + 1 + i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    for (int i = 0; i <= rcount; ++i) {
      c2->children[i].store(
          child->children[mid + 1 + i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    // Mark before unlink (with a version bump so in-flight seqlock readers
    // of `child` notice): a reader never follows an edge out of a node it
    // validated as marked.
    child->version.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    child->marked.store(true, std::memory_order_relaxed);
    child->version.fetch_add(1, std::memory_order_release);
    if (parent == anchor_) {
      Internal* nr = smr_.template create<Internal>();
      nr->nkeys.store(1, std::memory_order_relaxed);
      nr->keys[0].store(sep, std::memory_order_relaxed);
      nr->children[0].store(c1, std::memory_order_relaxed);
      nr->children[1].store(c2, std::memory_order_relaxed);
      anchor_->children[0].store(nr, std::memory_order_release);
    } else {
      internal_insert_sep(parent, j, sep, c1, c2);
    }
    child->lock.unlock();
    parent->lock.unlock();
    smr_.retire(child);
    smr_.exit_write_phase();
  }

  // Inserts separator `sep` at child slot `j`, replacing children[j] with
  // (left, right). Caller holds parent's lock and guarantees room.
  void internal_insert_sep(Internal* p, int j, uint64_t sep, NodeBase* left,
                           NodeBase* right) {
    const uint32_t nk = p->nkeys.load(std::memory_order_relaxed);
    p->version.fetch_add(1, std::memory_order_relaxed);  // odd: mutating
    std::atomic_thread_fence(std::memory_order_release);
    for (int i = static_cast<int>(nk); i > j; --i) {
      p->keys[i].store(p->keys[i - 1].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    }
    for (int i = static_cast<int>(nk) + 1; i > j + 1; --i) {
      p->children[i].store(
          p->children[i - 1].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    p->keys[j].store(sep, std::memory_order_relaxed);
    p->children[j].store(left, std::memory_order_relaxed);
    p->children[j + 1].store(right, std::memory_order_relaxed);
    p->nkeys.store(nk + 1, std::memory_order_relaxed);
    p->version.fetch_add(1, std::memory_order_release);  // even: done
  }

  // Identity scan for `c` among p's children; requires p's lock (stable
  // arrays). Returns -1 if absent (stale window).
  int child_index_of(Internal* p, NodeBase* c) {
    const uint32_t nk =
        p == anchor_ ? 0 : p->nkeys.load(std::memory_order_relaxed);
    for (uint32_t i = 0; i <= nk; ++i) {
      if (p->children[i].load(std::memory_order_relaxed) == c) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  // ---- immutable leaf helpers ------------------------------------------------

  static int leaf_index_of(const Leaf* l, uint64_t key) {
    for (uint32_t i = 0; i < l->nkeys; ++i) {
      if (l->keys[i] == key) return static_cast<int>(i);
    }
    return -1;
  }

  static bool leaf_contains(const Leaf* l, uint64_t key) {
    return leaf_index_of(l, key) >= 0;
  }

  Leaf* leaf_copy_insert(const Leaf* l, uint64_t key, uint64_t val) {
    Leaf* nl = smr_.template create<Leaf>();
    uint32_t n = 0;
    bool placed = false;
    for (uint32_t i = 0; i < l->nkeys; ++i) {
      if (!placed && key < l->keys[i]) {
        nl->keys[n] = key;
        nl->vals[n] = val;
        ++n;
        placed = true;
      }
      nl->keys[n] = l->keys[i];
      nl->vals[n] = l->vals[i];
      ++n;
    }
    if (!placed) {
      nl->keys[n] = key;
      nl->vals[n] = val;
      ++n;
    }
    nl->nkeys = n;
    return nl;
  }

  // Same keys, `key` remapped to `val` (the put-replace copy).
  Leaf* leaf_copy_replace(const Leaf* l, uint64_t key, uint64_t val) {
    Leaf* nl = smr_.template create<Leaf>();
    for (uint32_t i = 0; i < l->nkeys; ++i) {
      nl->keys[i] = l->keys[i];
      nl->vals[i] = l->keys[i] == key ? val : l->vals[i];
    }
    nl->nkeys = l->nkeys;
    return nl;
  }

  Leaf* leaf_copy_erase(const Leaf* l, uint64_t key) {
    Leaf* nl = smr_.template create<Leaf>();
    uint32_t n = 0;
    for (uint32_t i = 0; i < l->nkeys; ++i) {
      if (l->keys[i] != key) {
        nl->keys[n] = l->keys[i];
        nl->vals[n] = l->vals[i];
        ++n;
      }
    }
    nl->nkeys = n;
    return nl;
  }

  // Splits a full leaf plus (key, val) into two leaves; sep = l2's first
  // key.
  void leaf_split_insert(const Leaf* l, uint64_t key, uint64_t val,
                         uint64_t& sep, Leaf*& l1, Leaf*& l2) {
    uint64_t all[kMaxKeys + 1];
    uint64_t allv[kMaxKeys + 1];
    uint32_t n = 0;
    bool placed = false;
    for (uint32_t i = 0; i < l->nkeys; ++i) {
      if (!placed && key < l->keys[i]) {
        all[n] = key;
        allv[n] = val;
        ++n;
        placed = true;
      }
      all[n] = l->keys[i];
      allv[n] = l->vals[i];
      ++n;
    }
    if (!placed) {
      all[n] = key;
      allv[n] = val;
      ++n;
    }
    const uint32_t half = n / 2;
    l1 = smr_.template create<Leaf>();
    l2 = smr_.template create<Leaf>();
    for (uint32_t i = 0; i < half; ++i) {
      l1->keys[i] = all[i];
      l1->vals[i] = allv[i];
    }
    l1->nkeys = half;
    for (uint32_t i = half; i < n; ++i) {
      l2->keys[i - half] = all[i];
      l2->vals[i - half] = allv[i];
    }
    l2->nkeys = n - half;
    sep = all[half];
  }

  // ---- teardown / introspection -----------------------------------------------

  void destroy_rec(NodeBase* n) {
    if (n == nullptr) return;
    if (!n->leaf) {
      Internal* in = static_cast<Internal*>(n);
      const uint32_t nk =
          in == anchor_ ? 0 : in->nkeys.load(std::memory_order_relaxed);
      for (uint32_t i = 0; i <= nk; ++i) {
        destroy_rec(in->children[i].load(std::memory_order_relaxed));
      }
    }
    smr::destroy_unpublished(n);
  }

  uint64_t count_rec(const NodeBase* n) const {
    if (n == nullptr) return 0;
    if (n->leaf) return static_cast<const Leaf*>(n)->nkeys;
    const Internal* in = static_cast<const Internal*>(n);
    const uint32_t nk =
        in == anchor_ ? 0 : in->nkeys.load(std::memory_order_acquire);
    uint64_t total = 0;
    for (uint32_t i = 0; i <= nk; ++i) {
      total += count_rec(in->children[i].load(std::memory_order_acquire));
    }
    return total;
  }

  Smr smr_;  // destroyed last
  Internal* anchor_;
};

}  // namespace pop::ds
