// HazardPtrPOP — hazard pointers with publish-on-ping (paper Algorithms
// 1 and 2). Drop-in replacement for HP: identical interface, identical
// per-thread reservation bound, but the read path performs no fence —
// reservations stay private until a reclaimer pings.
//
//   read():   repeat { p = *src; local[slot] = p } until p == *src
//   retire(): append; at threshold: collect counters, ping all, wait,
//             then free every retired node absent from the published
//             (shared) reservations.
//
// Between its own handshakes a thread also frees, on its retire path,
// whatever another thread's completed handshake covers (the lazy sweep,
// pop_engine.hpp): one ping wave serves every retire list.
//
// Safety (paper Property 2): when the reclaimer scans, every reservation
// made before the ping handshake completed is visible; a reservation made
// after must have validated its source pointer *after* the node was
// unlinked, so it cannot name a node in this reclaimer's retire list. A
// lazy sweep frees only nodes sealed before the covering handshake took
// its ticket, for which the same argument holds (pop_engine.hpp).
// Robustness (Property 3): at most threshold + N*H nodes are unreclaimed
// per retire list — a thread's own handshake still sweeps its whole list
// every threshold retires; lazy sweeps only free sooner.
#pragma once

#include <atomic>

#include "core/pop_engine.hpp"
#include "smr/domain_base.hpp"
#include "smr/tagged.hpp"

namespace pop::core {

class HazardPtrPopDomain : public smr::DomainBase<HazardPtrPopDomain> {
 public:
  static constexpr const char* kName = "HazardPtrPOP";
  using DomainBase::DomainBase;

  void begin_op() { attach(); }
  void end_op() { clear(); }

  // The paper's read(): private reservation + source revalidation, no
  // fence ("no store load fence needed", Alg. 1 line 12).
  template <class T>
  T* protect(int slot, const std::atomic<T*>& src) {
    std::atomic<uintptr_t>& r = engine_.local_slot(runtime::my_tid(), slot);
    T* p = src.load(std::memory_order_acquire);
    for (;;) {
      r.store(reinterpret_cast<uintptr_t>(smr::strip_mark(p)),
              std::memory_order_relaxed);  // private: no fence
      T* q = src.load(std::memory_order_acquire);
      if (q == p) return p;
      p = q;
    }
  }

  void copy_slot(int dst, int src) {
    engine_.copy_local(runtime::my_tid(), dst, src);
  }

  void clear() { engine_.clear_local(runtime::my_tid()); }

  void retire(smr::Reclaimable* n) {
    const int tid = runtime::my_tid();
    core_.retire(tid, n, 0, [&](bool) { reclaim(tid); });
    engine_.on_retired(core_, tid, freeable);
  }

 private:
  friend DomainBase;

  void neutralize(int tid) { engine_.reap(tid); }
  void on_attach(int tid) { engine_.attach(tid); }
  void on_detach(int /*tid*/) { engine_.unhook(); }

  // Free every retired node no published reservation names.
  static bool freeable(const smr::Reservations& published,
                       smr::Reclaimable* node) {
    return !published.names(node);
  }

  void reclaim(int tid) {
    engine_.reclaim(core_, tid, [this](int t) { neutralize(t); }, freeable);
  }

  PopEngine engine_{config().num_slots};
};

}  // namespace pop::core
