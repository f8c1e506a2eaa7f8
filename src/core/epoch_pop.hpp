// EpochPOP — epoch-based reclamation with a publish-on-ping fallback
// (paper Algorithm 3). The paper's headline hybrid: EBR speed in the
// common case, hazard-pointer robustness when threads stall.
//
// Threads run classic EBR (announce epoch on entry, quiesce on exit) and
// *simultaneously* track hazard-pointer-style reservations privately, via
// the fence-free read of HazardPtrPOP. Reclamation:
//
//   an operation whose epoch tick    -> EBR-mode sweep (free nodes retired
//   moves the global epoch              before the min announced epoch);
//   list still >= C*retire_threshold -> a thread delay is suspected: run
//                                      the POP handshake and free every
//                                      node not in the published
//                                      reservations, ignoring epochs.
//
// The EBR-mode trigger departs from Algorithm 3's reclaimFreq line, which
// sweeps when the list length reaches a multiple of reclaimFreq. Here a
// thread sweeps at the start of each operation whose tick advances the
// clock (once per epoch_freq of its own operations, however many threads
// run; DEBRA's cadence, Brown 2017): a node retired at epoch e is
// freeable once every thread has announced past e, about one grace
// period after its retire, instead of when the list fills. The sweep runs
// before the thread announces, so its own op pins nothing, and it
// returns at once while the list's oldest segment is still pinned. The
// free predicate (retire epoch below the min announced epoch) is
// Algorithm 3's, so the safety argument is unchanged: only when a sweep
// runs moved, not what it may free. The retire epoch is kept per
// retire-list segment, an upper bound of its nodes' (retire_list.hpp). The POP escalation still counts list length
// against C * retire_threshold. EBR keeps Algorithm 6's every-reclaimFreq
// sweep; ebr.hpp says why.
//
// There is no global mode switch (contrast Qsense): one thread can be
// reclaiming in EBR mode while another pings — reclaimers act
// independently, which is exactly Algorithm 3's structure. Once any
// thread's POP handshake completes, every thread frees what it covers on
// its next retire (the lazy sweep, pop_engine.hpp), so one fallback wave
// drains every list the stall held; those frees count as pop_frees.
// Without a stall no handshake runs and the lazy sweep never fires.
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

  // Algorithm 3 startOp(), after the epoch sweep when this op's tick moves
  // the clock (before the announce, so the op pins none of its list).
  void begin_op() {
    attach();
    const int tid = runtime::my_tid();
    if (epochs_.tick(tid, config().epoch_freq)) reclaim_epoch_freeable(tid);
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

  // Algorithm 3 retire(): the POP pass once the list outgrows
  // C * retire_threshold although begin_op's epoch sweeps ran (a delayed
  // thread is suspected), or under memory pressure.
  void retire(smr::Reclaimable* n) {
    const int tid = runtime::my_tid();
    const auto& cfg = config();
    core_.retire(
        tid, n, epochs_.now(),
        [&](uint64_t len) {
          return len >= cfg.pop_multiplier * cfg.retire_threshold;
        },
        [&](bool) { reclaim_pop(tid); });
    core_.stats(tid).pop_frees += engine_.on_retired(core_, tid, freeable);
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

  // Algorithm 3 reclaimEpochFreeable(): classic EBR sweep, run when this
  // thread's tick moves the clock; it frees the retire-list segments
  // retired before the minimum announced epoch whole. While the list's
  // oldest segment is still pinned (a parked or descheduled reader) it
  // could free nothing, so it returns after one min_announced() scan: no
  // sweep, and no reap, whose tgkill probes of a heartbeat-frozen reader
  // would otherwise run on every second sweep. A corpse that pins the
  // epoch is reaped by the POP pass, which the list reaches at
  // C * retire_threshold. Otherwise it reaps (adopting orphaned lists)
  // and sweeps; min_announced can only have risen since it was read, so
  // freeing below it stays safe.
  void reclaim_epoch_freeable(int tid) {
    const smr::RetireList& list = core_.retire_list(tid);
    if (list.empty()) return;
    const uint64_t min_announced = epochs_.min_announced();
    if (list.oldest_epoch() >= min_announced) return;
    reap(tid);
    core_.stats(tid).ebr_frees += core_.sweep_epochs(tid, min_announced);
  }

  // Algorithm 3 lines 27-30: the POP fallback. Frees everything not in
  // the published hazard reservations, ignoring epochs entirely — safe
  // because every access is preceded by a validated (private) reservation.
  static bool freeable(const smr::Reservations& published,
                       smr::Reclaimable* node) {
    return !published.names(node);
  }

  void reclaim_pop(int tid) {
    core_.stats(tid).pop_frees += engine_.reclaim(
        core_, tid, [this](int t) { neutralize(t); }, freeable);
  }

  smr::EpochAnnouncements epochs_;
  PopEngine engine_{config().num_slots};
};

}  // namespace pop::core
