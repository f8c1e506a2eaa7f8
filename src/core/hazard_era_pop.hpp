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
#pragma once

#include <atomic>

#include "core/pop_engine.hpp"
#include "smr/domain_base.hpp"
#include "smr/epoch.hpp"

namespace pop::core {

class HazardEraPopDomain : public smr::DomainBase<HazardEraPopDomain> {
 public:
  static constexpr const char* kName = "HazardEraPOP";
  using DomainBase::DomainBase;

  void begin_op() { attach(); }
  void end_op() { clear(); }

  // Algorithm 5 read(): era reservation without the publish fence.
  template <class T>
  T* protect(int slot, const std::atomic<T*>& src) {
    const int tid = runtime::my_tid();
    uintptr_t prev = engine_.local_value(tid, slot);
    for (;;) {
      T* p = src.load(std::memory_order_acquire);
      const uint64_t e = era_.now();
      if (e == prev) return p;
      engine_.reserve_local(tid, slot, e);  // no store-load fence needed
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
  void retire(smr::Reclaimable* n) {
    const int tid = runtime::my_tid();
    core_.retire(tid, n, era_.now(), [&](bool) {
      era_.advance();
      reclaim(tid);
    });
  }

  uint64_t current_era() const { return era_.now(); }

 private:
  friend DomainBase;

  void neutralize(int tid) { engine_.reap(tid); }
  void on_attach(int tid) { engine_.attach(tid); }
  void on_detach(int /*tid*/) { engine_.unhook(); }
  uint64_t birth_era() const { return era_.now(); }

  // Free every retired node whose lifespan no published era intersects.
  void reclaim(int tid) {
    engine_.reclaim(
        core_, tid, [this](int t) { neutralize(t); },
        [](const smr::Reservations& published, smr::Reclaimable* node) {
          return !published.intersects(node);
        });
  }

  smr::EpochClock era_;
  PopEngine engine_{config().num_slots};  // slot values are eras
};

}  // namespace pop::core
