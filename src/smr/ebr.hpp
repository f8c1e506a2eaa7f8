// EBR — epoch-based reclamation, RCU style (the paper's Algorithm 6, the
// substrate of EpochPOP's fast path).
//
// A thread announces the global epoch on operation entry and announces
// quiescence (kQuiescent) on exit; one announcement fence per *operation*
// instead of per read. A reclaimer frees nodes retired before the minimum
// announced epoch. Not robust: a thread parked inside an operation pins
// the minimum epoch and stops all reclamation — the failure mode EpochPOP
// exists to fix (and which tests/smr/test_robustness.cpp demonstrates).
//
// Sweep cadence: every retire_threshold retires, as Algorithm 6 reads.
// The sweep frees whole the retire-list segments retired before the
// minimum announced epoch and visits no node of the others
// (RetireList::sweep_epochs), so a parked reader costs each sweep one
// min_announced() scan, not a walk of every node it pins. EpochPOP's fast
// path instead sweeps when a thread's own tick moves the epoch
// (epoch_pop.hpp). Either way, a parked reader pins every node retired
// while it parks, and EBR's workers, no longer slowed by walks, retire
// more of them per park: on the stalled-tree benchmark EBR's sweep p99
// fell from ~4.6 ms to ~64 us while its peak unreclaimed count rose
// ~2.2x (5 traced pairs; 4-core x86 guest). That garbage sets the
// benchmark's peak RSS.
#pragma once

#include <atomic>
#include <cstdint>

#include "smr/domain_base.hpp"
#include "smr/epoch.hpp"

namespace pop::smr {

class EbrDomain : public DomainBase<EbrDomain> {
 public:
  static constexpr const char* kName = "EBR";
  using DomainBase::DomainBase;

  void begin_op() {
    attach();
    const int tid = runtime::my_tid();
    epochs_.tick(tid, config().epoch_freq);
    epochs_.announce(tid, epochs_.now());
  }
  void end_op() { epochs_.quiesce(runtime::my_tid()); }

  template <class T>
  T* protect(int /*slot*/, const std::atomic<T*>& src) {
    return src.load(std::memory_order_acquire);  // epoch covers the read
  }
  void copy_slot(int /*dst*/, int /*src*/) {}
  void clear() {}

  void retire(Reclaimable* n) {
    const int tid = runtime::my_tid();
    core_.retire(tid, n, epochs_.now(), [&](bool forced) {
      if (forced) epochs_.advance();
      scan(tid);
    });
  }

 private:
  friend DomainBase;

  // A corpse that died inside an operation pins the minimum epoch forever;
  // the reaper parks it at quiescent.
  void neutralize(int tid) { epochs_.quiesce(tid); }

  // Frees every retire-list segment retired before the minimum announced
  // epoch; the segments it pins are not walked.
  void scan(int tid) {
    reap(tid);
    core_.sweep_epochs(tid, epochs_.min_announced());
  }

  EpochAnnouncements epochs_;
};

}  // namespace pop::smr
