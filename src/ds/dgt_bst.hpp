// DGT — external (leaf-oriented) binary search tree in the style of
// David, Guerraoui & Trigonakis (ASCY, ASPLOS'15): lock-free traversals,
// per-node spinlocks on the update path (Figures 1a, 3b, 6).
//
// Internal nodes route (key < node.key goes left); leaves hold the map's
// keys and values. An insert replaces a leaf with a three-node subtree; a
// delete unlinks a leaf *and its parent*, retiring both — two
// retirements per delete makes this tree a heavy SMR exerciser. A
// put-replace swings the parent's child pointer from the old leaf to a
// fresh one (values are immutable after publication) and retires the
// displaced leaf; the old leaf is NOT deletion-marked — a reader still
// holding it reads the key as present with the old value, which
// linearizes before the swap, while writers revalidate membership by
// identity and retry.
//
// SMR discipline: nodes are marked before being unlinked, and a traversal
// validates, after protecting a child read from p, that p is still
// unmarked — giving the reachability guarantee the HP family needs.
// Slots: 0 = grandparent, 1 = parent, 2 = leaf, 3 = descent scratch.
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
class DgtBst {
 public:
  // Keys must be < kMaxUserKey; larger values are sentinel routing keys.
  static constexpr uint64_t kMaxUserKey = UINT64_MAX - 2;

  explicit DgtBst(const smr::SmrConfig& cfg = {}) : smr_(cfg) {
    Node* sentinel_leaf =
        smr_.template create<Node>(kMaxUserKey, /*leaf=*/true);
    Node* sentinel_right =
        smr_.template create<Node>(UINT64_MAX - 1, /*leaf=*/true);
    root_ = smr_.template create<Node>(UINT64_MAX - 1, /*leaf=*/false);
    root_->left.store(sentinel_leaf, std::memory_order_relaxed);
    root_->right.store(sentinel_right, std::memory_order_relaxed);
  }

  ~DgtBst() { destroy_rec(root_); }

  bool get(uint64_t key, uint64_t* val_out) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Desc d;
    if (!search(key, d)) goto retry;
    if (d.leaf->key != key ||
        d.leaf->marked.load(std::memory_order_acquire)) {
      return false;
    }
    // Leaf payloads are immutable after publication (a replace swings in
    // a fresh leaf), so this read is untorn; a displaced leaf's old value
    // linearizes before the swap.
    if (val_out != nullptr) *val_out = d.leaf->val;
    return true;
  }

  bool contains(uint64_t key) { return get(key, nullptr); }

  bool insert(uint64_t key, uint64_t val) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Desc d;
    if (!search(key, d)) goto retry;
    if (d.leaf->key == key) {
      if (d.leaf->marked.load(std::memory_order_acquire)) goto retry;
      return false;  // present (observed unmarked)
    }
    if (!grow_leaf(d, key, val)) goto retry;
    return true;
  }

  bool insert(uint64_t key) { return insert(key, key); }

  PutResult put(uint64_t key, uint64_t val) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Desc d;
    if (!search(key, d)) goto retry;
    if (d.leaf->key == key) {
      if (d.leaf->marked.load(std::memory_order_acquire)) goto retry;
      // Replace: swing the parent's child edge to a fresh leaf. Member-
      // ship is revalidated by identity under the parent's lock (an
      // erase-marked or already-replaced leaf is no longer its child).
      smr_.enter_write_phase({d.parent, d.leaf});
      d.parent->lock.lock();
      auto& slot = d.leaf_dir_left ? d.parent->left : d.parent->right;
      if (d.parent->marked.load(std::memory_order_acquire) ||
          slot.load(std::memory_order_acquire) != d.leaf) {
        d.parent->lock.unlock();
        smr_.exit_write_phase();
        goto retry;
      }
      Node* nl = smr_.template create<Node>(key, /*leaf=*/true, val);
      slot.store(nl, std::memory_order_release);
      d.parent->lock.unlock();
      smr_.retire(d.leaf);
      return PutResult::kReplaced;
    }
    if (!grow_leaf(d, key, val)) goto retry;
    return PutResult::kInserted;
  }

  bool erase(uint64_t key) {
    typename Smr::Guard g(smr_);
  retry:
    POPSMR_CHECKPOINT(smr_);
    Desc d;
    if (!search(key, d)) goto retry;
    if (d.leaf->key != key) return false;
    if (d.leaf->marked.load(std::memory_order_acquire)) return false;
    smr_.enter_write_phase({d.gparent, d.parent, d.leaf});
    d.gparent->lock.lock();
    // Re-derive p's slot in gp by identity: rotations don't exist, so p is
    // gp's left or right child or the window is stale.
    std::atomic<Node*>* gp_slot = nullptr;
    if (d.gparent->left.load(std::memory_order_acquire) == d.parent) {
      gp_slot = &d.gparent->left;
    } else if (d.gparent->right.load(std::memory_order_acquire) == d.parent) {
      gp_slot = &d.gparent->right;
    }
    if (d.gparent->marked.load(std::memory_order_acquire) ||
        gp_slot == nullptr) {
      d.gparent->lock.unlock();
      smr_.exit_write_phase();
      goto retry;
    }
    d.parent->lock.lock();
    Node* sibling = nullptr;
    if (d.parent->left.load(std::memory_order_acquire) == d.leaf) {
      sibling = d.parent->right.load(std::memory_order_acquire);
    } else if (d.parent->right.load(std::memory_order_acquire) == d.leaf) {
      sibling = d.parent->left.load(std::memory_order_acquire);
    }
    if (sibling == nullptr) {  // leaf no longer under parent
      d.parent->lock.unlock();
      d.gparent->lock.unlock();
      smr_.exit_write_phase();
      goto retry;
    }
    d.parent->marked.store(true, std::memory_order_release);
    d.leaf->marked.store(true, std::memory_order_release);
    gp_slot->store(sibling, std::memory_order_release);
    d.parent->lock.unlock();
    d.gparent->lock.unlock();
    smr_.retire(d.parent);  // after unlock: spinlocks must not be freed
    smr_.retire(d.leaf);    // while a waiter could still spin on them
    return true;
  }

  uint64_t size_slow() const { return count_rec(root_); }
  Smr& domain() { return smr_; }

  DgtBst(const DgtBst&) = delete;
  DgtBst& operator=(const DgtBst&) = delete;

 private:
  struct Node : smr::Reclaimable {
    Node(uint64_t k, bool is_leaf, uint64_t v = 0)
        : key(k), val(v), leaf(is_leaf) {}
    uint64_t key;
    uint64_t val;  // leaf payload; immutable after publication
    std::atomic<Node*> left{nullptr};
    std::atomic<Node*> right{nullptr};
    runtime::Spinlock lock;
    std::atomic<bool> marked{false};
    bool leaf;  // packed with lock and marked into the last word
  };
  // The pool's size classes are fitted to the node: it wastes under 16 B.
  // The size pin makes a field that crosses a size class fail here.
  static_assert(runtime::detail::pool_class_slack(sizeof(Node)) < 16);
  static_assert(sizeof(Node) == 64);

  static constexpr int kSlotGp = 0;
  static constexpr int kSlotP = 1;
  static constexpr int kSlotL = 2;
  static constexpr int kSlotTmp = 3;

  struct Desc {
    Node* gparent;
    Node* parent;
    Node* leaf;
    bool leaf_dir_left;  // leaf is parent->left
  };

  // Replaces d.leaf with a three-node subtree adding (key, val). Returns
  // false when validation failed and the caller must re-descend. On
  // success the write phase is left open for the Guard to close.
  bool grow_leaf(Desc& d, uint64_t key, uint64_t val) {
    smr_.enter_write_phase({d.parent, d.leaf});
    d.parent->lock.lock();
    auto& slot = d.leaf_dir_left ? d.parent->left : d.parent->right;
    if (d.parent->marked.load(std::memory_order_acquire) ||
        slot.load(std::memory_order_acquire) != d.leaf) {
      d.parent->lock.unlock();
      smr_.exit_write_phase();
      return false;
    }
    Node* new_leaf = smr_.template create<Node>(key, /*leaf=*/true, val);
    Node* internal = smr_.template create<Node>(
        key > d.leaf->key ? key : d.leaf->key, /*leaf=*/false);
    if (key < d.leaf->key) {
      internal->left.store(new_leaf, std::memory_order_relaxed);
      internal->right.store(d.leaf, std::memory_order_relaxed);
    } else {
      internal->left.store(d.leaf, std::memory_order_relaxed);
      internal->right.store(new_leaf, std::memory_order_relaxed);
    }
    slot.store(internal, std::memory_order_release);
    d.parent->lock.unlock();
    return true;
  }

  // Descends to the leaf for `key`. Returns false when a validation
  // failed and the caller must restart. On success gparent/parent/leaf
  // are reserved (in rotating slots: a node entering the gp/p role keeps
  // the reservation it acquired on the way down — zero copies per level).
  bool search(uint64_t key, Desc& d) {
    int sgp = kSlotGp, sp = kSlotP, sl = kSlotL, st = kSlotTmp;
    Node* gp = root_;  // sentinels: root never marked/retired
    Node* p = root_;
    bool dir_left = true;
    Node* l = smr_.protect(sl, root_->left);
    while (!l->leaf) {
      gp = p;
      p = l;
      dir_left = key < p->key;
      Node* child = smr_.protect(st, dir_left ? p->left : p->right);
      if (p->marked.load(std::memory_order_acquire)) return false;
      l = child;
      const int t = sgp;  // rotate roles; the old gp's slot becomes scratch
      sgp = sp;
      sp = sl;
      sl = st;
      st = t;
    }
    d = {gp, p, l, dir_left};
    return true;
  }

  void destroy_rec(Node* n) {
    if (n == nullptr) return;
    if (!n->leaf) {
      destroy_rec(n->left.load(std::memory_order_relaxed));
      destroy_rec(n->right.load(std::memory_order_relaxed));
    }
    smr::destroy_unpublished(n);
  }

  uint64_t count_rec(const Node* n) const {
    if (n == nullptr) return 0;
    if (n->leaf) return n->key < kMaxUserKey ? 1 : 0;
    return count_rec(n->left.load(std::memory_order_acquire)) +
           count_rec(n->right.load(std::memory_order_acquire));
  }

  Smr smr_;  // destroyed last
  Node* root_;
};

}  // namespace pop::ds
