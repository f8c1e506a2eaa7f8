// HP — Michael's hazard pointers (the paper's baseline, §2.1).
//
// Every read of a new shared pointer (1) stores it into a SWMR slot,
// (2) executes a StoreLoad fence (the seq_cst store below compiles to a
// single xchg/mov+mfence on x86 — the exact cost the paper attributes to
// HP), and (3) re-reads the source pointer to validate that the target was
// still reachable after the reservation became visible. A reclaimer scans
// all slots and frees only unreserved retired nodes.
#pragma once

#include <atomic>

#include "smr/domain_base.hpp"
#include "smr/hp_slots.hpp"
#include "smr/tagged.hpp"

namespace pop::smr {

class HpDomain : public DomainBase<HpDomain> {
 public:
  static constexpr const char* kName = "HP";
  using DomainBase::DomainBase;

  void begin_op() { attach(); }
  void end_op() { clear(); }

  template <class T>
  T* protect(int slot, const std::atomic<T*>& src) {
    std::atomic<uintptr_t>& r = slots_.at(runtime::my_tid(), slot);
    T* p = src.load(std::memory_order_acquire);
    for (;;) {
      // seq_cst store: publish + StoreLoad fence in one instruction.
      r.store(reinterpret_cast<uintptr_t>(strip_mark(p)),
              std::memory_order_seq_cst);
      T* q = src.load(std::memory_order_acquire);
      if (q == p) return p;
      p = q;
    }
  }

  void copy_slot(int dst, int src) {
    slots_.copy(runtime::my_tid(), dst, src);
  }

  void clear() { neutralize(runtime::my_tid()); }

  void retire(Reclaimable* n) {
    const int tid = runtime::my_tid();
    core_.retire(tid, n, 0, [&](bool) { scan(tid); });
  }

 private:
  friend DomainBase;

  void neutralize(int tid) { slots_.clear_row(tid, config().num_slots); }

  void scan(int tid) {
    reap(tid);
    const Reservations reserved =
        slots_.collect(config().num_slots, core_.scan_scratch(tid));
    core_.sweep_retired(
        tid, [&](Reclaimable* node) { return !reserved.names(node); });
  }

  SlotTable slots_;
};

}  // namespace pop::smr
