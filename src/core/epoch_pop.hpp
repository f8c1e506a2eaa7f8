// EpochPOP — epoch-based reclamation with a publish-on-ping fallback
// (paper Algorithm 3). The paper's headline hybrid: EBR speed in the
// common case, hazard-pointer robustness when threads stall.
//
// Threads run classic EBR (announce epoch on entry, quiesce on exit) and
// *simultaneously* track hazard-pointer-style reservations privately, via
// the fence-free read of HazardPtrPOP. Reclamation:
//
//   every retire_threshold retires  -> EBR-mode sweep (free nodes retired
//                                      before the min announced epoch);
//   list still >= C*retire_threshold -> a thread delay is suspected: run
//                                      the POP handshake and free every
//                                      node not in the published
//                                      reservations, ignoring epochs.
//
// There is no global mode switch (contrast Qsense): one thread can be
// reclaiming in EBR mode while another pings — reclaimers act
// independently, which is exactly Algorithm 3's structure.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/pop_engine.hpp"
#include "smr/domain_base.hpp"
#include "smr/epoch.hpp"
#include "smr/tagged.hpp"

namespace pop::core {

class EpochPopDomain : public smr::DomainBase<EpochPopDomain> {
 public:
  static constexpr const char* kName = "EpochPOP";
  using DomainBase::DomainBase;

  // Algorithm 3 startOp().
  void begin_op() {
    attach();
    const int tid = runtime::my_tid();
    epochs_.tick(tid, config().epoch_freq);
    epochs_.announce(tid, epochs_.now());
  }

  // Algorithm 3 endOp(): announce quiescence and drop local reservations.
  void end_op() {
    const int tid = runtime::my_tid();
    epochs_.quiesce(tid);
    engine_.clear_local(tid);
  }

  // Algorithm 3 read(): the fence-free private reservation of
  // HazardPtrPOP, maintained alongside the epoch announcement.
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

  // Algorithm 3 retire(): the epoch sweep on every retire_threshold-th
  // list length, the POP pass once the list outgrows C * retire_threshold
  // anyway (a delayed thread is suspected) or under memory pressure.
  void retire(smr::Reclaimable* n) {
    const int tid = runtime::my_tid();
    const auto& cfg = config();
    core_.retire(
        tid, n, epochs_.now(),
        [&](uint64_t len) {
          if (len % cfg.retire_threshold == 0) reclaim_epoch_freeable(tid);
          return core_.retire_list(tid).length() >=
                 cfg.pop_multiplier * cfg.retire_threshold;
        },
        [&](bool) { reclaim_pop(tid); });
  }

  uint64_t current_epoch() const { return epochs_.now(); }

 private:
  friend DomainBase;

  // Zeroes the engine slots and parks the announced epoch at quiescent, so
  // neither a departed thread nor a corpse pins anything.
  void neutralize(int tid) {
    engine_.reap(tid);
    epochs_.quiesce(tid);
  }
  void on_attach(int tid) { engine_.attach(tid); }
  void on_detach(int /*tid*/) { engine_.unhook(); }
  uint64_t birth_era() const { return epochs_.now(); }

  // Algorithm 3 reclaimEpochFreeable(): classic EBR sweep.
  void reclaim_epoch_freeable(int tid) {
    reap(tid);
    const uint64_t min_announced = epochs_.min_announced();
    core_.stats(tid).ebr_frees +=
        core_.sweep_retired(tid, [&](smr::Reclaimable* node) {
          return node->retire_era < min_announced;
        });
  }

  // Algorithm 3 lines 27-30: the POP fallback. Frees everything not in
  // the published hazard reservations, ignoring epochs entirely — safe
  // because every access is preceded by a validated (private) reservation.
  void reclaim_pop(int tid) {
    core_.stats(tid).pop_frees += engine_.reclaim(
        core_, tid, [this](int t) { neutralize(t); },
        [](const smr::Reservations& published, smr::Reclaimable* node) {
          return !published.names(node);
        });
  }

  smr::EpochAnnouncements epochs_;
  PopEngine engine_{config().num_slots};
};

}  // namespace pop::core
