// NBR+ — neutralization-based reclamation (Singh, Brown & Mashtizadeh,
// PPoPP'21 / TPDS'24), the signal-based baseline the paper contrasts POP
// against.
//
// Operations are split into a *read phase* (traversal; pointers held
// unprotected) and a *write phase* (mutation; the needed pointers are
// published first). A reclaimer pings all threads; a thread caught in its
// read phase is *neutralized*: its handler acknowledges and siglongjmps
// back to the operation checkpoint, discarding every pointer it held. A
// thread in its write phase merely acknowledges — its published
// reservations protect the nodes it will touch. After all
// acknowledgements the reclaimer frees everything not reserved.
//
// The + refinement is the SWMR acknowledgement counter handshake (same
// shape as POP's publish counters) which coalesces concurrent reclaimers.
//
// This is exactly the behaviour Figure 4 punishes: long-running readers
// are restarted from scratch whenever any reclaimer frees, which POP
// avoids. The restart count is exported in the stats as `neutralized`.
#pragma once

#include <atomic>
#include <csetjmp>
#include <csignal>

#include "runtime/backoff.hpp"
#include "runtime/signal_bus.hpp"
#include "smr/checkpoint.hpp"
#include "smr/domain_base.hpp"
#include "smr/hp_slots.hpp"

namespace pop::smr {

class NbrDomain final : public DomainBase<NbrDomain>,
                        public runtime::SignalClient {
 public:
  static constexpr const char* kName = "NBR";
  static constexpr bool kNeutralizes = true;
  using DomainBase::DomainBase;

  ~NbrDomain() { runtime::SignalBus::instance().detach(this); }

  void begin_op() { attach(); }

  void end_op() {
    const int tid = runtime::my_tid();
    auto& pt = *pt_[tid];
    pt.read_phase.store(false, std::memory_order_relaxed);
    if (pt.write_phase.load(std::memory_order_relaxed)) {
      pt.write_phase.store(false, std::memory_order_relaxed);
      slots_.clear_row(tid, config().num_slots);
    }
    // Run any reclamation that was deferred because the threshold was
    // crossed during a read phase.
    core_.run_deferred(tid, [&] { reclaim(tid); });
  }

  // ---- checkpoint protocol (used via POPSMR_CHECKPOINT) -------------------

  sigjmp_buf& jmp_env() { return pt_[runtime::my_tid()]->env; }

  // Runs after a neutralization longjmp, before the traversal restarts.
  void on_restart() {
    const int tid = runtime::my_tid();
    auto& pt = *pt_[tid];
    pt.write_phase.store(false, std::memory_order_relaxed);
    slots_.clear_row(tid, config().num_slots);
    core_.stats(tid).neutralized += 1;
  }

  void arm_read_phase() {
    pt_[runtime::my_tid()]->read_phase.store(true, std::memory_order_relaxed);
  }

  // ---- reads ----------------------------------------------------------------

  // Read-phase loads are deliberately unprotected; neutralization makes
  // holding them safe (any reclaim round would have restarted us first).
  template <class T>
  T* protect(int /*slot*/, const std::atomic<T*>& src) {
    return src.load(std::memory_order_acquire);
  }
  void copy_slot(int /*dst*/, int /*src*/) {}
  void clear() {}

  // ---- write phase -----------------------------------------------------------

  // Publishes the nodes the write phase will touch, then suppresses
  // neutralization. Order matters: if a ping lands between the publishes
  // and the flag store the handler still restarts us (read_phase is
  // true), and the stale published slots merely make the reclaimer
  // conservative until cleared on restart.
  void enter_write_phase(
      std::initializer_list<const Reclaimable*> to_reserve = {}) {
    const int tid = runtime::my_tid();
    int s = 0;
    for (const Reclaimable* r : to_reserve) {
      slots_.at(tid, s++).store(reinterpret_cast<uintptr_t>(r),
                                std::memory_order_release);
    }
    // seq_cst signal fence: compiler-only barrier — the handler runs on
    // this same thread, so the slot stores above just must not sink past
    // the phase change the handler inspects.
    std::atomic_signal_fence(std::memory_order_seq_cst);
    auto& pt = *pt_[tid];
    pt.write_phase.store(true, std::memory_order_relaxed);
    pt.read_phase.store(false, std::memory_order_relaxed);
  }

  // Leave the write phase and fall back to the read phase (either to keep
  // traversing, as HML's helping does, or to retry from the checkpoint).
  // read_phase is re-armed: the operation's jmp_env is still live, and any
  // pointer the caller keeps using must again be covered by
  // neutralization.
  void exit_write_phase() {
    const int tid = runtime::my_tid();
    auto& pt = *pt_[tid];
    pt.write_phase.store(false, std::memory_order_relaxed);
    slots_.clear_row(tid, config().num_slots);
    pt.read_phase.store(true, std::memory_order_relaxed);
  }

  // ---- memory -----------------------------------------------------------------

  // Never reclaim while neutralizable: a longjmp out of the sweep would
  // corrupt the retire list. A pass due in a read phase runs at end_op.
  void retire(Reclaimable* n) {
    const int tid = runtime::my_tid();
    core_.retire(tid, n, 0, [&](bool) {
      if (pt_[tid]->read_phase.load(std::memory_order_relaxed)) return false;
      reclaim(tid);
      return true;
    });
  }

  // ---- signal handler ------------------------------------------------------------

  void on_ping(int tid) noexcept override {
    auto& pt = *pt_[tid];
    if (!core_.attached(tid)) return;
    // seq_cst fence: everything this thread did before taking the signal
    // must be visible before the ack the reclaimer is waiting on.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    pt.ack.fetch_add(1, std::memory_order_release);
    pt.pings += 1;
    if (pt.read_phase.load(std::memory_order_relaxed)) {
      pt.read_phase.store(false, std::memory_order_relaxed);
      // sigsetjmp saved no mask (savemask=0): re-enable the ping signal
      // ourselves, then jump back to the checkpoint.
      sigset_t set;
      sigemptyset(&set);
      sigaddset(&set, runtime::kPingSignal);
      sigprocmask(SIG_UNBLOCK, &set, nullptr);
      siglongjmp(pt.env, 1);
    }
  }

 private:
  friend DomainBase;

  // Drops tid's phases and published slots and bumps its ack, so a
  // concurrent reclaimer's wait releases: a detaching thread holds
  // nothing, a corpse can never acknowledge, and a thread taking over a
  // recycled tid must not inherit a read phase its handler would act on.
  void neutralize(int tid) {
    auto& pt = *pt_[tid];
    pt.read_phase.store(false, std::memory_order_relaxed);
    pt.write_phase.store(false, std::memory_order_relaxed);
    slots_.clear_row(tid, config().num_slots);
    pt.ack.fetch_add(1, std::memory_order_release);
  }
  void on_attach(int /*tid*/) { runtime::SignalBus::instance().attach(this); }
  void on_detach(int /*tid*/) { runtime::SignalBus::instance().detach(this); }

  void reclaim(int tid) {
    auto& st = core_.stats(tid);
    reap(tid);
    // Snapshot acks, ping everyone, wait for all to acknowledge (either by
    // restarting out of a read phase or by fencing through the handler).
    struct Waited {
      int tid;
      uint64_t ack_before;
      uint64_t registry_epoch;
    };
    Waited waited[runtime::kMaxThreads];
    int nwait = 0;
    auto& reg = runtime::ThreadRegistry::instance();
    const int hi = reg.max_tid();
    for (int t = 0; t <= hi; ++t) {
      if (t == tid || !core_.attached(t)) continue;
      waited[nwait++] = {t, pt_[t]->ack.load(std::memory_order_acquire),
                         core_.owner_epoch(t)};
    }
    st.signals_sent += static_cast<uint64_t>(reg.ping_others(
        runtime::kPingSignal, [this](int t) { return core_.attached(t); },
        [](int, uint64_t) {}));
    for (int i = 0; i < nwait; ++i) {
      const auto& w = waited[i];
      runtime::SpinThenYield waiter;
      uint32_t spins = 0;
      while (pt_[w.tid]->ack.load(std::memory_order_acquire) ==
                 w.ack_before &&
             core_.attached(w.tid) &&
             reg.slot_epoch(w.tid) == w.registry_epoch) {
        // Periodic kernel-liveness probe: a thread that died mid-phase
        // will never ack, and only this escape (or a later certification)
        // ends the wait. Cheap relative to the yield-dominated loop.
        if ((++spins & 1023u) == 0 &&
            reg.owner_departed(w.tid, w.registry_epoch)) {
          break;
        }
        waiter.wait();
      }
    }
    const Reservations reserved =
        slots_.collect(config().num_slots, core_.scan_scratch(tid));
    core_.sweep_retired(
        tid, [&](Reclaimable* node) { return !reserved.names(node); });
    st.pings_received = pt_[tid]->pings;
  }

  struct PerThread {
    sigjmp_buf env;
    std::atomic<bool> read_phase{false};
    std::atomic<bool> write_phase{false};
    std::atomic<uint64_t> ack{0};
    uint64_t pings = 0;
  };

  SlotTable slots_;
  runtime::Padded<PerThread> pt_[runtime::kMaxThreads];
};

}  // namespace pop::smr
