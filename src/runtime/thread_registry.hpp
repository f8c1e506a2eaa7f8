// Process-wide thread registry.
//
// Publish-on-ping needs to send POSIX signals to every participating
// thread, which requires (a) a dense small integer id per live thread for
// indexing SWMR reservation arrays, and (b) a pthread_t that is guaranteed
// to stay valid for the duration of a pthread_kill call.
//
// Ids are allocated from a fixed pool on first use (my_tid()) and recycled
// when the thread exits (thread_local destructor). ping-style broadcasts
// run under the registry mutex, so a registered thread cannot finish
// deregistering — and thus cannot die — while a signal to it is in flight.
#pragma once

#include <pthread.h>
#include <signal.h>  // pthread_kill
#include <sys/types.h>  // pid_t

#include <atomic>
#include <cstdint>

#include "runtime/fault_inject.hpp"
#include "runtime/padded.hpp"

namespace pop::runtime {

// Upper bound on simultaneously live registered threads. SMR domains size
// their per-thread arrays with this; keep it modest to keep scans cheap.
inline constexpr int kMaxThreads = 144;

namespace detail {
// Fast-path cache for my_tid(): initial-exec TLS, readable with a single
// mov on the hot path (protect() consults it on every pointer read).
extern thread_local int t_cached_tid;
}  // namespace detail

class ThreadRegistry {
 public:
  static ThreadRegistry& instance();

  // Dense id of the calling thread, registering it on first call.
  int my_tid() {
    const int t = detail::t_cached_tid;
    return t >= 0 ? t : register_current_thread();
  }

  // True if a thread currently owns `tid`.
  bool alive(int tid) const {
    return slots_[tid]->alive.load(std::memory_order_acquire);
  }

  // Registration epoch of `tid`: bumped every time the slot is (re)assigned,
  // so waiters can detect that a slot was recycled to a different thread.
  uint64_t slot_epoch(int tid) const {
    return slots_[tid]->epoch.load(std::memory_order_acquire);
  }

  // ---- liveness probe (the zombie reaper's certification rail) -----------

  // Per-slot heartbeat: bumped by the owning thread on every operation
  // bracket (DomainCore::attach_if_new) and on every signal delivery
  // (SignalBus handler). Async-signal-safe: a lock-free atomic increment.
  // Reapers use staleness across scans to gate the kernel probe below —
  // a frozen heartbeat is *suspicion*, never proof (a legitimately parked
  // reader freezes too); only the kernel's verdict certifies death.
  void heartbeat_bump(int tid) {
    slots_[tid]->heartbeat.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t heartbeat(int tid) const {
    return slots_[tid]->heartbeat.load(std::memory_order_relaxed);
  }

  // Kernel verdict on a registered slot: true iff the slot is currently
  // owned and tgkill(sig 0) says the owning kernel thread no longer
  // exists — i.e. the thread died without running its TLS destructor
  // (async kill, cancellation). A recycled kernel tid makes this answer
  // "alive", which is the conservative (never-reap) direction.
  bool kernel_dead(int tid);

  // True iff the thread that owned `tid` at `owner_epoch` is gone: the
  // slot was deregistered or recycled (epoch moved), or the owner is
  // kernel-dead while still registered. This is the reaper's
  // certification predicate; a `false` means the owner may still take
  // references and its state must not be touched.
  bool owner_departed(int tid, uint64_t owner_epoch) {
    if (slot_epoch(tid) != owner_epoch) return true;   // deregistered/recycled
    if (!alive(tid)) return true;                      // mid-deregister
    return kernel_dead(tid);
  }

  // Force-deregisters a slot whose owner (at `owner_epoch`) is kernel-dead
  // but still registered — its TLS destructor never ran. Bumping the
  // epoch here is what releases every epoch-staleness wait loop (the
  // counter handshake) from the corpse. Returns true iff this call
  // performed the deregistration.
  bool certify_zombie(int tid, uint64_t owner_epoch);

  // Sends `sig` to every live registered thread except the caller for
  // which filter(tid) is true. Runs under the registry lock: targets
  // cannot deregister (or exit) mid-kill. Returns #signals sent. The one
  // caller is the counter handshake (handshake.hpp), which passes its
  // wave's membership as the filter: signalling uninvolved threads is not
  // just wasted work — a reclaim-heavy domain would bombard every thread
  // in the process with EINTRs (a sleeping thread can be starved out of
  // its sleep entirely at high ping rates).
  template <class Filter>
  int ping_others(int sig, Filter&& filter) {
    const int self = my_tid();  // register before taking the lock
    lock();
    int sent = 0;
    const int hi = max_tid_.load(std::memory_order_acquire);
    auto& faults = FaultInjection::instance();
    for (int t = 0; t <= hi; ++t) {
      auto& s = *slots_[t];
      if (t == self || !s.alive.load(std::memory_order_acquire)) continue;
      if (!filter(t)) continue;
      // Injected signal loss: the kill is skipped but the target still
      // counts as signalled — the sender must not be able to tell a
      // dropped signal from a delivered one (that is the fault model).
      if (faults.should_drop(t) || pthread_kill(s.handle, sig) == 0) ++sent;
    }
    unlock();
    return sent;
  }

  // Async-signal-safe read of the calling thread's cached id; -1 when the
  // thread is not currently registered (never registers).
  static int detail_cached_tid() noexcept { return detail::t_cached_tid; }

  // Fault-injection hook: forgets the calling thread's registration
  // WITHOUT releasing the slot. When the thread then exits, its slot
  // stays registered while the kernel thread disappears — exactly the
  // zombie state (TLS destructor never ran) that the reaper's tgkill
  // certification exists for. The slot is unrecoverable except through
  // certify_zombie. Test/bench use only.
  void detail_abandon_registration();

  // Largest tid ever assigned (inclusive); bounds scan loops.
  int max_tid() const { return max_tid_.load(std::memory_order_acquire); }

  // #threads currently registered.
  int live_count() const { return live_.load(std::memory_order_relaxed); }

  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

 private:
  ThreadRegistry() = default;

  struct Slot {
    std::atomic<bool> alive{false};
    std::atomic<uint64_t> epoch{0};
    std::atomic<uint64_t> heartbeat{0};
    // Kernel thread id of the current owner, for the tgkill(sig 0) probe.
    // pthread_t can outlive its thread in unspecified ways; the kernel id
    // is safe to probe after death (worst case it aliases a new thread,
    // which reads as "alive" — the conservative direction).
    std::atomic<pid_t> ktid{0};
    pthread_t handle{};
  };

  void lock();
  void unlock();
  int register_current_thread();  // slow path; out of line
  void deregister(int tid);

  friend struct TidGuard;

  Padded<Slot> slots_[kMaxThreads];
  std::atomic<int> max_tid_{-1};
  std::atomic<int> live_{0};
  std::atomic<bool> mu_{false};
};

// Convenience: dense id of the calling thread. One TLS load when cached.
inline int my_tid() {
  const int t = detail::t_cached_tid;
  return t >= 0 ? t : ThreadRegistry::instance().my_tid();
}

}  // namespace pop::runtime
