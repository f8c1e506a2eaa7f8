// The global epoch/era clock and the per-thread epoch announcements the
// epoch-based schemes share. HE and HazardEraPOP reserve eras of an
// EpochClock; EBR, EpochPOP and IBR (its interval's lower bound) announce
// epochs through EpochAnnouncements, whose tick also triggers EpochPOP's
// epoch sweep.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/tid_rows.hpp"

namespace pop::smr {

class EpochClock {
 public:
  uint64_t now() const { return now_.load(std::memory_order_acquire); }
  void advance() { now_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  std::atomic<uint64_t> now_{1};  // 0 is reserved for HE's "no era"
};

// A thread announces the epoch it entered at and announces quiescence
// (kQuiescent) when it leaves; a reclaimer may free what was retired
// before min_announced().
class EpochAnnouncements : public EpochClock {
 public:
  static constexpr uint64_t kQuiescent = UINT64_MAX;

  // The epoch_freq cadence: every `freq`-th tick of a thread advances the
  // clock (EBR and EpochPOP tick per operation, IBR per allocation).
  // Returns true when this tick advanced it: EpochPOP runs its epoch
  // sweep then, so each thread sweeps once per `freq` of its own
  // operations, however many threads share the clock.
  bool tick(int tid, uint64_t freq) {
    if (++slots_.get(tid).ticks % freq != 0) return false;
    advance();
    return true;
  }

  // The one fence per operation these schemes pay, and the one EpochPOP's
  // ping spares its quiescent readers.
  void announce(int tid, uint64_t epoch) {
    // seq_cst: the announcement is globally visible before the op's reads.
    slots_.get(tid).announced.store(epoch, std::memory_order_seq_cst);
  }
  void quiesce(int tid) {
    slots_.get(tid).announced.store(kQuiescent, std::memory_order_release);
  }
  // A tid with no slot here never announced: quiescent.
  uint64_t announced(int tid) const {
    const Slot* slot = slots_.find(tid);
    return slot == nullptr
               ? kQuiescent
               : slot->announced.load(std::memory_order_acquire);
  }

  uint64_t min_announced() const {
    uint64_t m = kQuiescent;
    slots_.for_each([&m](int, const Slot& slot) {
      const uint64_t e = slot.announced.load(std::memory_order_acquire);
      if (e < m) m = e;
    });
    return m;
  }

 private:
  // Starts quiescent: a zero-initialized slot would read as "announced at
  // epoch 0" and pin every retired node forever.
  struct Slot {
    std::atomic<uint64_t> announced{kQuiescent};
    uint64_t ticks = 0;  // owner-thread only
  };
  runtime::TidRows<Slot> slots_;
};

}  // namespace pop::smr
