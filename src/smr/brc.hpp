// BRC — batched reference-counted reclamation, the repo's stand-in for
// Crystalline (appendix Figures 10-11; see "Substitutions" under the
// scheme table in README.md).
//
// Crystalline/Hyaline free a retired batch when the last reader that
// could reference it departs, using distributed reference counts instead
// of reservation scans. We reproduce that *shape* with an SRCU-style
// two-phase scheme: readers announce entry/exit on per-thread sharded
// counters tagged with the current phase; a reclaimer flips the phase and
// waits until both phases drain (two grace periods), after which every
// node retired before the flip is unreferenced and the whole batch is
// freed at once.
//
// Reader cost: one SWMR counter store + fence per operation (no per-read
// work) — the same fast-reader/low-memory profile the Crystalline
// comparison exhibits. Like EBR it is not robust: a parked reader delays
// grace periods (the bench harness reports this in the memory metrics).
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/backoff.hpp"
#include "smr/domain_base.hpp"

namespace pop::smr {

class BrcDomain : public DomainBase<BrcDomain> {
 public:
  static constexpr const char* kName = "BRC";
  using DomainBase::DomainBase;

  void begin_op() {
    attach();
    const int tid = runtime::my_tid();
    auto& pt = pt_.get(tid);
    // Announce-and-revalidate (the classic SRCU entry subtlety): between
    // reading the phase and announcing, a reclaimer can flip that phase
    // and run its drain — the drain balances before our announcement
    // lands, the batch frees, and the critical section runs unprotected
    // (observed in practice as a reader traversing recycled node memory;
    // found by the TSan CI job). So announce, then re-read the phase:
    // unchanged means any later flip's drain is seq_cst-after our entry
    // store and must count us; changed means we might have been missed —
    // withdraw (rebalancing the shard for the drain that skipped us) and
    // re-announce. The comparison is on the FULL counter, not the parity:
    // one reclaim pass flips twice, so parity alone revalidates
    // spuriously when both flips (and both drains) land inside the
    // window. Flips are reclaim-rate rare, so the loop almost never
    // iterates.
    for (;;) {
      const uint64_t ph = phase_.load(std::memory_order_seq_cst);  // seq_cst
      const uint32_t p = static_cast<uint32_t>(ph) & 1u;
      // The announce is totally ordered against the drain's phase flip:
      // either the flip sees this entry or the revalidation sees the
      // flip — never neither. Hence seq_cst.
      pt.enters[p].store(pt.enters[p].load(std::memory_order_relaxed) + 1,
                         std::memory_order_seq_cst);
      // seq_cst revalidate: must not reorder before the announce above.
      if (phase_.load(std::memory_order_seq_cst) == ph) {
        pt.my_phase = p;
        break;
      }
      // seq_cst withdraw: keeps the stale shard balanced for its drain.
      pt.exits[p].store(pt.exits[p].load(std::memory_order_relaxed) + 1,
                        std::memory_order_seq_cst);
    }
  }

  void end_op() {
    const int tid = runtime::my_tid();
    auto& pt = pt_.get(tid);
    const uint32_t p = pt.my_phase;
    pt.exits[p].store(pt.exits[p].load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
    // Grace periods block, so they must run outside the critical section:
    // a reclaimer waiting for readers while itself counted as a reader
    // would deadlock against a second reclaimer doing the same.
    core_.run_deferred(tid, [&] { reclaim(tid); });
  }

  template <class T>
  T* protect(int /*slot*/, const std::atomic<T*>& src) {
    return src.load(std::memory_order_acquire);
  }
  void copy_slot(int /*dst*/, int /*src*/) {}
  void clear() {}

  // Every pass, forced ones included, waits for end_op.
  void retire(Reclaimable* n) {
    core_.retire(runtime::my_tid(), n, 0, [](bool) { return false; });
  }

 private:
  friend DomainBase;

  // Two grace periods: after both, every reader that was in a critical
  // section when reclaim() began has exited, so every node unlinked and
  // retired before that point is unreferenced.
  void reclaim(int tid) {
    reap(tid);
    for (int round = 0; round < 2; ++round) {
      // Orders against readers' announce-and-revalidate (begin_op): a
      // reader whose entry predates the flip is always visible to the
      // drain below — hence seq_cst on the flip.
      const uint32_t old_phase = static_cast<uint32_t>(
          phase_.fetch_add(1, std::memory_order_seq_cst) & 1u);
      drain(old_phase, tid);
    }
    core_.sweep_retired(tid, [](Reclaimable*) { return true; });
  }

  // A tid with no row never announced: its shards read as balanced, and
  // its first announce follows its row's publication (tid_rows.hpp), so
  // it revalidates against this flip like any late entrant.
  void drain(uint32_t p, int self) {
    pt_.for_each([&](int t, PerThread& pt) {
      runtime::SpinThenYield waiter;
      uint32_t spins = 0;
      // Late entries into phase p (threads that read the phase just before
      // the flip) still increment enters[p] and eventually exits[p]; spin
      // until the shard balances. seq_cst reads: an entry store that is
      // seq_cst-before our flip must be visible here, or the reader's
      // revalidation load would have seen the flip and withdrawn.
      while (pt.exits[p].load(std::memory_order_seq_cst) !=
             pt.enters[p].load(std::memory_order_seq_cst)) {
        // A thread that died inside its critical section never exits —
        // without this escape the grace period livelocks on the corpse.
        // Route the balancing through the reaper (never balance in place
        // here): reap_dead re-checks ownership under the lock that
        // serializes recycled-tid takeovers, so a just-attached new owner
        // cannot have its counters clobbered by a stale corpse snapshot.
        if ((++spins & 1023u) == 0 && core_.owner_departed(t)) {
          reap(self);
          continue;  // certification may need further passes; re-test
        }
        waiter.wait();
      }
    });
  }

  // Balances both phase shards of the slot. A corpse can never run its
  // exits, and a frozen enters > exits blocks every future grace period;
  // a thread taking over a recycled tid must balance before its first
  // announcement for the same reason. The counters cannot move
  // concurrently: the reaper holds the domain reap lock, and a detaching
  // thread is outside any critical section, so there its enters already
  // equal its exits.
  void neutralize(int t) {
    auto& pt = pt_.get(t);
    for (int p = 0; p < 2; ++p) {
      pt.exits[p].store(pt.enters[p].load(std::memory_order_relaxed),
                        std::memory_order_release);
    }
  }

  struct PerThread {
    std::atomic<uint64_t> enters[2] = {};
    std::atomic<uint64_t> exits[2] = {};
    uint32_t my_phase = 0;
  };

  // u64: the entry revalidation compares full counter values, so wrap
  // (the parity-ABA at 2^32 flips) is out of reach in practice.
  std::atomic<uint64_t> phase_{0};
  runtime::TidRows<PerThread> pt_;
};

}  // namespace pop::smr
