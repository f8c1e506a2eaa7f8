// IBR — interval-based reclamation (Wen et al., PPoPP'18), the tagged
// 2GE variant the paper benchmarks.
//
// Each thread publishes a reservation *interval* [lo, hi]: lo is the epoch
// at operation start, hi grows to the current epoch whenever a read
// observes an epoch change (fencing only then, like HE). The global epoch
// advances every epoch_freq allocations. A node is freeable when its
// lifespan [birth_era, retire_era] intersects no thread's interval —
// robust like HE, with the same "pinned interval" garbage bound.
#pragma once

#include <atomic>
#include <cstdint>

#include "smr/domain_base.hpp"
#include "smr/epoch.hpp"

namespace pop::smr {

class IbrDomain : public DomainBase<IbrDomain> {
 public:
  static constexpr const char* kName = "IBR";
  using NodeHeader = EraReclaimable;  // the lifespan the sweep reads
  using DomainBase::DomainBase;

  // lo is the announced epoch; a quiescent thread's interval is empty
  // (lo = kQuiescent > hi).
  void begin_op() {
    attach();
    const int tid = runtime::my_tid();
    const uint64_t e = epochs_.now();
    hi_.get(tid).store(e, std::memory_order_relaxed);
    epochs_.announce(tid, e);
  }

  void end_op() { neutralize(runtime::my_tid()); }

  template <class T>
  T* protect(int /*slot*/, const std::atomic<T*>& src) {
    std::atomic<uint64_t>& hi = hi_.get(runtime::my_tid());
    for (;;) {
      T* p = src.load(std::memory_order_acquire);
      const uint64_t e = epochs_.now();
      if (hi.load(std::memory_order_relaxed) == e) return p;
      hi.store(e, std::memory_order_seq_cst);  // seq_cst refresh fence
    }
  }
  void copy_slot(int /*dst*/, int /*src*/) {}
  void clear() {}

  void retire(EraReclaimable* n) {
    const int tid = runtime::my_tid();
    n->retire_era = epochs_.now();
    core_.retire(tid, n, 0, [&](bool forced) {
      if (forced) epochs_.advance();
      scan(tid);
    });
  }

 private:
  friend DomainBase;

  // Empties the interval; the reaper uses it on a corpse that died
  // mid-operation and would otherwise hold its interval open forever.
  void neutralize(int tid) {
    hi_.get(tid).store(0, std::memory_order_relaxed);
    epochs_.quiesce(tid);
  }

  // Ticks on allocation, which may come outside any operation (a table's
  // constructor creating its sentinels): tick() allocates the row.
  uint64_t birth_era() {
    epochs_.tick(runtime::my_tid(), config().epoch_freq);
    return epochs_.now();
  }

  void scan(int tid) {
    reap(tid);
    struct Range {
      uint64_t lo, hi;
    };
    Range rs[runtime::kMaxThreads];
    int n = 0;
    // A tid with no hi row holds the empty interval (h = 0 < lo).
    hi_.for_each([&](int t, const std::atomic<uint64_t>& hi) {
      const uint64_t lo = epochs_.announced(t);
      const uint64_t h = hi.load(std::memory_order_acquire);
      if (lo <= h) rs[n++] = {lo, h};
    });
    core_.sweep_retired(tid, [&](Reclaimable* r) {
      const auto* node = static_cast<const EraReclaimable*>(r);
      for (int i = 0; i < n; ++i) {
        if (node->birth_era <= rs[i].hi && rs[i].lo <= node->retire_era) {
          return false;  // lifespan intersects a reserved interval
        }
      }
      return true;
    });
  }

  EpochAnnouncements epochs_;
  runtime::TidRows<std::atomic<uint64_t>> hi_;
};

}  // namespace pop::smr
