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
// Safety (paper Property 2): when the reclaimer scans, every reservation
// made before the ping handshake completed is visible; a reservation made
// after must have validated its source pointer *after* the node was
// unlinked, so it cannot name a node in this reclaimer's retire list.
// Robustness (Property 3): at most threshold + N*H nodes are unreclaimed.
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
    const int tid = runtime::my_tid();
    T* p = src.load(std::memory_order_acquire);
    for (;;) {
      engine_.reserve_local(
          tid, slot, reinterpret_cast<uintptr_t>(smr::strip_mark(p)));
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
  }

 private:
  friend DomainBase;

  void neutralize(int tid) { engine_.reap(tid); }
  void on_attach(int tid) { engine_.attach(tid); }
  void on_detach(int /*tid*/) { engine_.unhook(); }

  // Free every retired node no published reservation names.
  void reclaim(int tid) {
    engine_.reclaim(
        core_, tid, [this](int t) { neutralize(t); },
        [](const smr::Reservations& published, smr::Reclaimable* node) {
          return !published.names(node);
        });
  }

  PopEngine engine_{config().num_slots};
};

}  // namespace pop::core
