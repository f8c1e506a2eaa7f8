// HE — hazard eras (Ramalhete & Correia; the paper's Algorithm 4).
//
// Threads reserve monotonically increasing *eras* instead of pointers.
// Each node records its lifespan [birth_era, retire_era]; a node is
// freeable when no reserved era intersects that lifespan. The per-read
// fence is needed only when the global era changed since the slot's last
// reservation, which amortizes fencing — but, as the paper measures, the
// residual cost is still substantial and a reserved era pins every node
// whose lifetime intersects it.
#pragma once

#include <atomic>

#include "smr/domain_base.hpp"
#include "smr/epoch.hpp"
#include "smr/hp_slots.hpp"

namespace pop::smr {

class HeDomain : public DomainBase<HeDomain> {
 public:
  static constexpr const char* kName = "HE";
  using NodeHeader = EraReclaimable;  // the lifespan the sweep reads
  using DomainBase::DomainBase;

  void begin_op() { attach(); }
  void end_op() { clear(); }

  template <class T>
  T* protect(int slot, const std::atomic<T*>& src) {
    const int tid = runtime::my_tid();
    uintptr_t prev = slots_.at(tid, slot).load(std::memory_order_relaxed);
    for (;;) {
      T* p = src.load(std::memory_order_acquire);
      const uint64_t e = era_.now();
      if (e == prev) return p;  // era unchanged: reservation already covers p
      slots_.at(tid, slot).store(e, std::memory_order_seq_cst);  // seq_cst fence
      prev = e;
    }
  }

  void copy_slot(int dst, int src) {
    slots_.copy(runtime::my_tid(), dst, src);
  }

  void clear() { neutralize(runtime::my_tid()); }

  void retire(EraReclaimable* n) {
    const int tid = runtime::my_tid();
    n->retire_era = era_.now();
    core_.retire(tid, n, 0, [&](bool) {
      era_.advance();  // Alg. 4 line 21
      scan(tid);
    });
  }

 private:
  friend DomainBase;

  void neutralize(int tid) { slots_.clear_row(tid, config().num_slots); }
  uint64_t birth_era() const { return era_.now(); }

  void scan(int tid) {
    reap(tid);
    const Reservations eras =
        slots_.collect(config().num_slots, core_.scan_scratch(tid));
    core_.sweep_retired(tid, [&](Reclaimable* node) {
      return !eras.intersects(static_cast<const EraReclaimable*>(node));
    });
  }

  SlotTable slots_;  // slot values are eras
  EpochClock era_;
};

}  // namespace pop::smr
