// HazardEraPOP — hazard eras with publish-on-ping (paper Algorithm 5,
// Appendix B.2). Same interface as HE; the read path reserves the current
// era *privately* (no fence even when the era changes). On a reclaimer's
// ping the handler publishes the reserved eras; the reclaimer then frees
// every retired node whose lifespan [birth_era, retire_era] intersects no
// published era.
//
// Safety is Property 6: a reader that reserved era e before the handshake
// has e published when the reclaimer scans; a reader that reserves after
// the handshake observes an era >= the victim's retire era bump, so its
// reservation cannot intersect the victim's lifespan retroactively.
//
// Property 6 for the lazy sweep (pop_engine.hpp), where another thread's
// handshake covers this thread's sealed nodes: the reclaimer advances the
// era *after* taking its ticket. A sealed node's retire era was read
// before its seal's fence, which precedes that ticket RMW in S, so the
// read cannot see the advance: the node's retire era is below the
// advanced era, exactly as for the reclaimer's own nodes, and a reader
// reserving after the handshake again cannot intersect its lifespan.
#pragma once

#include <atomic>

#include "core/pop_engine.hpp"
#include "smr/domain_base.hpp"
#include "smr/epoch.hpp"

namespace pop::core {

class HazardEraPopDomain : public smr::DomainBase<HazardEraPopDomain> {
 public:
  static constexpr const char* kName = "HazardEraPOP";
  using NodeHeader = smr::EraReclaimable;  // the lifespan the sweep reads
  using DomainBase::DomainBase;

  void begin_op() { attach(); }
  void end_op() { clear(); }

  // Algorithm 5 read(): era reservation without the publish fence.
  template <class T>
  T* protect(int slot, const std::atomic<T*>& src) {
    std::atomic<uintptr_t>& r = engine_.local_slot(runtime::my_tid(), slot);
    uintptr_t prev = r.load(std::memory_order_relaxed);
    for (;;) {
      T* p = src.load(std::memory_order_acquire);
      const uint64_t e = era_.now();
      if (e == prev) return p;
      r.store(e, std::memory_order_relaxed);  // no store-load fence needed
      prev = e;
    }
  }

  void copy_slot(int dst, int src) {
    engine_.copy_local(runtime::my_tid(), dst, src);
  }

  void clear() { engine_.clear_local(runtime::my_tid()); }

  // A reserved era pins *every* node whose lifespan intersects it — e.g.
  // all prefill-born nodes — so the list length legitimately sits above
  // the threshold: the shared retire tick, never a length trigger, keeps
  // this from pinging on every retire.
  void retire(smr::EraReclaimable* n) {
    const int tid = runtime::my_tid();
    n->retire_era = era_.now();
    core_.retire(tid, n, 0, [&](bool) { reclaim(tid); });
    engine_.on_retired(core_, tid, freeable);
  }

  uint64_t current_era() const { return era_.now(); }

 private:
  friend DomainBase;

  void neutralize(int tid) { engine_.reap(tid); }
  void on_attach(int tid) { engine_.attach(tid); }
  void on_detach(int /*tid*/) { engine_.unhook(); }
  uint64_t birth_era() const { return era_.now(); }

  // Free every retired node whose lifespan no published era intersects.
  static bool freeable(const smr::Reservations& published,
                       smr::Reclaimable* node) {
    return !published.intersects(
        static_cast<const smr::EraReclaimable*>(node));
  }

  // The era advances once the ticket is taken (Property 6 above).
  void reclaim(int tid) {
    engine_.reclaim(
        core_, tid, [this](int t) { neutralize(t); }, freeable,
        [this] { era_.advance(); });
  }

  smr::EpochClock era_;
  PopEngine engine_{config().num_slots};  // slot values are eras
};

}  // namespace pop::core
