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
// Sweep cadence: every retire_threshold retires, as Algorithm 6 reads,
// walking the whole list. EpochPOP's fast path instead sweeps when a
// thread's own tick moves the epoch and skips walks a pinned minimum
// makes useless (epoch_pop.hpp). EBR does not take that cadence: with it,
// a parked reader no longer slows EBR's workers with ~100k-node walks, so
// they retire more nodes per stall, all pinned, and the stalled-tree
// benchmark's peak RSS, which the EBR cell sets, rose 13.5% (53.6 -> 60.8
// MiB, medians of 6 alternating pairs, every pair worse; 4-core x86 guest).
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
  uint64_t birth_era() const { return epochs_.now(); }

  void scan(int tid) {
    reap(tid);
    const uint64_t min_announced = epochs_.min_announced();
    core_.sweep_retired(tid, [&](Reclaimable* node) {
      return node->retire_era < min_announced;
    });
  }

  EpochAnnouncements epochs_;
};

}  // namespace pop::smr
