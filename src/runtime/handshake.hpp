// The counter handshake of every signalling reclaimer: the paper's
// Algorithm 2 (collectPublishedCounters, pingAllToPublish,
// waitForAllPublished), run by PopEngine (a POP publish), NbrDomain (a
// neutralization ack) and the AsymFence signal-broadcast fallback (a
// barrier ack). Each member of a wave owns an SWMR counter its ping
// handler bumps with a release RMW after a seq_cst fence; ping_and_wait
// snapshots the counters, pings, and waits until each has moved, or its
// member detached or lost its registry slot.
//
// Why a counter that moved after the snapshot covers the caller, whoever
// sent the signal that moved it. The caller issues a seq_cst fence after
// its unlinks and before the snapshot (POP: its own publish; NBR and the
// barrier: an explicit fence), and the bump it waits for follows the
// snapshot load in the counter's modification order: the handler that
// made it ran after the unlinks, and the caller's acquire load of the
// moved counter makes everything before that handler's fence visible.
//  * POP: the handler copied the member's private reservations to the
//    shared table; a reservation made after it revalidated its source
//    after the unlinks, so it cannot name an unlinked node (Property 2).
//  * NBR: a member in a write phase had published its reservations
//    before the handler; one in a read phase restarts from its checkpoint
//    after the ack and re-reads from the root, after the unlinks.
//  * Barrier: a member's hazard-pointer store either precedes the
//    handler's fence, and the ack makes it visible to the caller's scan,
//    or follows it, and the member's validation re-read sees the unlink.
// The orderings are POP's, unchanged; how far the C++ model alone carries
// "the handler ran after the unlinks" with a release (not seq_cst) bump
// is for a model check of this function to settle.
//
// Coalescing. A process-wide round counter is even when no wave is in
// flight and odd while a leader waits on the wave it broadcast. A caller
// that finds a wave open rides it instead of signalling every member: the
// wave's pings run every SignalBus client of each receiving thread, so
// they move the counters of every domain (and the barrier) it belongs to.
// A member the ride does not move — its bump predates this caller's
// snapshot, or the leader's membership missed it — is re-pinged after a
// patience interval that starts short and doubles. The round only decides
// who sends signals; the counter wait alone certifies.
//
// Watchdog. The wait carries a terminal deadline (POPSMR_PING_TIMEOUT_MS,
// 0 disables), armed lazily at the first re-ping. On expiry a laggard
// whose kernel thread is dead is certified through the registry and
// skipped; a live one (its pings lost, or preempted for that long) makes
// the wave return incomplete, and the caller then frees nothing against
// it: memory bounds degrade, never safety or liveness.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "runtime/backoff.hpp"
#include "runtime/env.hpp"
#include "runtime/padded.hpp"
#include "runtime/signal_bus.hpp"
#include "runtime/thread_registry.hpp"

namespace pop::runtime {

// Outcome of one handshake; a timed-out one certifies nothing.
struct HandshakeResult {
  int sent = 0;            // signals this caller issued
  bool timed_out = false;  // a live laggard outlasted the deadline
  bool led = false;        // this caller broadcast the wave (else joined)
  bool complete() const { return !timed_out; }
};

namespace detail {

// One member of a wave, recorded by the counter snapshot.
struct HandshakeTarget {
  int tid;
  const std::atomic<uint64_t>* counter;  // the member's ack/publish counter
  const std::atomic<bool>* attached;     // its membership flag
  uint64_t counter_before;
  uint64_t registry_epoch;  // its owner's registration, for staleness
};

// No-progress sweeps before re-pinging the laggards: ~128 spins + ~128
// yields at first, doubling per re-ping up to the max, so an open wave's
// bumps (microseconds, plus scheduling) normally land first while a stuck
// thread is not signal-bombed.
inline constexpr uint32_t kRepingPatienceFirst = 1u << 8;
inline constexpr uint32_t kRepingPatienceMax = 1u << 12;
// Watchdog deadline when POPSMR_PING_TIMEOUT_MS is unset. Generous: a
// healthy handshake completes in microseconds even under sanitizers, and
// a spurious expiry merely defers one sweep.
inline constexpr uint64_t kPingTimeoutMsDefault = 1000;

// The process-wide round (even = idle, odd = a wave is open): one cache
// line, touched only on the reclaim path.
inline std::atomic<uint64_t>& handshake_round() {
  static Padded<std::atomic<uint64_t>> r;
  return *r;
}

// A registry epoch handed to the snapshot: read after the counter.
inline uint64_t epoch_value(uint64_t e) { return e; }
inline uint64_t epoch_value(const std::atomic<uint64_t>& e) {
  return e.load(std::memory_order_relaxed);
}

// Deadline expiry: marks every laggard done. A dead one is certified (the
// registry epoch bump releases every other waiter on it too); a live one
// sets timed_out and gets one stderr line naming it.
inline void classify_laggards(const HandshakeTarget* waited, bool* done,
                              int nwait, int& remaining, uint64_t timeout_ms,
                              HandshakeResult& result) {
  auto& reg = ThreadRegistry::instance();
  for (int i = 0; i < nwait; ++i) {
    if (done[i]) continue;
    const auto& w = waited[i];
    done[i] = true;
    --remaining;
    if (reg.slot_epoch(w.tid) != w.registry_epoch ||
        reg.certify_zombie(w.tid, w.registry_epoch)) {
      continue;
    }
    result.timed_out = true;
    std::fprintf(stderr,
                 "popsmr: ping wave timed out after %llu ms: tid %d is "
                 "alive but never answered (heartbeat=%llu) — deferring "
                 "this sweep\n",
                 static_cast<unsigned long long>(timeout_ms), w.tid,
                 static_cast<unsigned long long>(reg.heartbeat(w.tid)));
  }
}

}  // namespace detail

// Runs one handshake over the caller's members. `snapshot(take)` must
// call take(tid, counter, attached, registry_epoch) once for every
// attached member other than the caller (registry_epoch: a value, or the
// atomic that holds it); `member(tid)` says whether tid belongs to the
// wave now, and filters every signal sent. On a complete() return every
// snapshotted member's counter moved, or the member departed.
template <class Snapshot, class Member>
HandshakeResult ping_and_wait(Snapshot&& snapshot, Member&& member) {
  HandshakeResult result;

  // collectPublishedCounters()
  detail::HandshakeTarget waited[kMaxThreads];
  int nwait = 0;
  auto& reg = ThreadRegistry::instance();
  snapshot([&](int t, const std::atomic<uint64_t>& counter,
               const std::atomic<bool>& attached, const auto& epoch) {
    const uint64_t before = counter.load(std::memory_order_acquire);
    waited[nwait++] = {t, &counter, &attached, before,
                       detail::epoch_value(epoch)};
  });

  // pingAllToPublish(), coalesced: lead a wave only if none is open.
  auto& round = detail::handshake_round();
  uint64_t r = round.load(std::memory_order_acquire);
  while ((r & 1) == 0) {
    if (round.compare_exchange_weak(r, r + 1, std::memory_order_acq_rel)) {
      result.sent = reg.ping_others(kPingSignal, member);
      result.led = true;
      break;
    }
  }

  // waitForAllPublished(), round-robin over the laggards so one patience
  // interval covers them all at once.
  bool done[kMaxThreads] = {};
  int remaining = nwait;
  SpinThenYield waiter;
  uint32_t stalled_sweeps = 0;
  // Per-wave patience: progress resets it to the fast first interval.
  uint32_t patience = detail::kRepingPatienceFirst;
  bool deadline_armed = false;
  uint64_t timeout_ms = 0;
  std::chrono::steady_clock::time_point armed_at{};
  while (remaining > 0) {
    bool progress = false;
    for (int i = 0; i < nwait; ++i) {
      if (done[i]) continue;
      const auto& w = waited[i];
      if (w.counter->load(std::memory_order_acquire) !=
              w.counter_before ||                           // acknowledged
          !w.attached->load(std::memory_order_acquire) ||   // detached
          reg.slot_epoch(w.tid) != w.registry_epoch) {      // slot recycled
        done[i] = true;
        --remaining;
        progress = true;
      }
    }
    if (remaining == 0) break;
    if (progress) {
      stalled_sweeps = 0;
      patience = detail::kRepingPatienceFirst;
    } else if (++stalled_sweeps > patience) {
      stalled_sweeps = 0;
      patience = patience < detail::kRepingPatienceMax / 2
                     ? patience * 2
                     : detail::kRepingPatienceMax;
      if (!deadline_armed) {
        deadline_armed = true;
        // Read per wave so tests and benches can vary the deadline.
        timeout_ms =
            env_u64("POPSMR_PING_TIMEOUT_MS", detail::kPingTimeoutMsDefault);
        armed_at = std::chrono::steady_clock::now();
      } else if (timeout_ms > 0 &&
                 std::chrono::steady_clock::now() - armed_at >=
                     std::chrono::milliseconds(timeout_ms)) {
        detail::classify_laggards(waited, done, nwait, remaining, timeout_ms,
                                  result);
        continue;  // remaining is now 0
      }
      result.sent += reg.ping_others(kPingSignal, [&](int t) {
        for (int i = 0; i < nwait; ++i) {
          if (!done[i] && waited[i].tid == t) return member(t);
        }
        return false;
      });
    }
    waiter.wait();  // yields under oversubscription (§4.1.2)
  }
  if (result.led) {
    round.fetch_add(1, std::memory_order_release);  // close the wave
  }
  return result;
}

// Completed ping waves, process-wide: tests compare deltas to check that
// concurrent reclaimers share one wave.
inline uint64_t handshake_rounds() {
  return detail::handshake_round().load(std::memory_order_acquire) / 2;
}

}  // namespace pop::runtime
