// HPAsym — hazard pointers with an asymmetric process-wide barrier, the
// optimized Folly-style implementation the paper adds to the NBR benchmark
// (§5: "an optimized Linux sys_membarrier-based version of HP").
//
// Readers publish reservations with a plain store and a compiler-only
// barrier; the StoreLoad ordering that classic HP buys with a per-read
// fence is supplied once per reclamation pass by a heavy process-wide
// fence (sys_membarrier, or a signal broadcast where the syscall is
// unavailable). Either the reader's reservation is visible to the scan, or
// the reader's validation re-read observes the unlink and retries.
#pragma once

#include <atomic>

#include "runtime/asym_fence.hpp"
#include "smr/domain_base.hpp"
#include "smr/hp_slots.hpp"
#include "smr/tagged.hpp"

namespace pop::smr {

class HpAsymDomain : public DomainBase<HpAsymDomain> {
 public:
  static constexpr const char* kName = "HPAsym";
  using DomainBase::DomainBase;

  void begin_op() { attach(); }
  void end_op() { clear(); }

  template <class T>
  T* protect(int slot, const std::atomic<T*>& src) {
    std::atomic<uintptr_t>& r = slots_.at(runtime::my_tid(), slot);
    T* p = src.load(std::memory_order_acquire);
    for (;;) {
      r.store(reinterpret_cast<uintptr_t>(strip_mark(p)),
              std::memory_order_release);
      runtime::AsymFence::light_fence();  // compiler barrier only
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
  // The signal-broadcast fallback must be able to reach this thread.
  void on_attach(int /*tid*/) {
    runtime::detail::attach_barrier_client_for_current_thread();
  }

  void scan(int tid) {
    reap(tid);
    // Make every reader's published-but-unfenced reservation visible; a
    // fallback fence that timed out frees nothing.
    if (!runtime::AsymFence::instance().heavy_fence()) {
      core_.stats(tid).waves_timed_out += 1;
      return;
    }
    const Reservations reserved =
        slots_.collect(config().num_slots, core_.scan_scratch(tid));
    core_.sweep_retired(
        tid, [&](Reclaimable* node) { return !reserved.names(node); });
  }

  SlotTable slots_;
};

}  // namespace pop::smr
