// PopEngine — the publish-on-ping machinery shared by HazardPtrPOP,
// HazardEraPOP and EpochPOP (paper §3, Algorithms 1-3, 5).
//
// Readers record reservations in *private* per-thread slots with plain
// (relaxed-atomic) stores: no fence, no cache-line transfer on the read
// path. When a reclaimer wants to scan, it executes the handshake of
// Algorithm 2:
//
//   collectPublishedCounters();   // snapshot every thread's SWMR counter
//   pingAllToPublish();           // pthread_kill to all attached threads
//   waitForAllPublished();        // spin until every counter advances
//
// Each pinged thread's signal handler copies its private slots to shared
// SWMR slots, issues one seq_cst fence, and increments its publish
// counter. Once every attached thread's counter has advanced past the
// snapshot, all reservations that existed before the ping are visible,
// and the reclaimer may free any retired node not found in the shared
// slots (pointer mode) or whose lifespan intersects no published era (era
// mode). Concurrent reclaimers coalesce twice over: a single publish
// satisfies every waiter whose snapshot predates it, and a global round
// counter lets a reclaimer that observes an in-flight ping wave piggyback
// on that wave's publish storm instead of re-signaling every thread (see
// ping_all_and_wait).
//
// Certification. The ping reaches every thread, so a completed handshake
// publishes everyone's reservations, not only the reclaimer's — it can
// serve every thread's retire list. Each handshake takes a ticket from a
// per-engine counter on entry (before its own publish and the counter
// snapshot); on completion it raises `certified` to that ticket. Each
// thread seals its open retire segments every seal_every retires under the
// ticket count it reads after a fence, and on a later retire, once
// `certified` is above a sealed stamp, sweeps those segments against the
// shared table with no handshake of its own (on_retired, the lazy
// sweep). The pinger still sweeps its whole list, so signals per retire
// do not change; a timed-out handshake certifies nothing. The counter is
// per engine, unlike the round: a wave led from another domain pings
// only that domain's threads.
//
// Property 2 for the lazy sweep. A node in a segment sealed under stamp
// s was unlinked before the seal's seq_cst fence X, and the seal's
// ticket load, which read s, is coherence-ordered before the seq_cst
// ticket RMW W of any handshake with ticket > s; so X precedes W in the
// single total order S ([atomics.order]/4.3), and W precedes the
// handshake's own publish fence. Every ordering the paper's Property 2
// uses about the reclaimer's own unlinks (sequenced before that fence)
// therefore holds for the sealed node too: a reservation a pinged thread
// made before its publish is in the shared table the sweeper collects
// (certify's release, the sweeper's acquire), and one made after it
// revalidated its source after X, so it cannot name the node.
//
// Private slots are lock-free std::atomic<uintptr_t> accessed with relaxed
// ordering — plain machine stores, and the only data shared with the
// (same-thread, asynchronous) signal handler, which makes the handler
// async-signal-safe by [intro.execution]/support.signal rules.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "obs/obs.hpp"
#include "runtime/backoff.hpp"
#include "runtime/env.hpp"
#include "runtime/padded.hpp"
#include "runtime/signal_bus.hpp"
#include "runtime/thread_registry.hpp"
#include "smr/domain_base.hpp"
#include "smr/hp_slots.hpp"

namespace pop::core {

// Outcome of one ping_all_and_wait handshake. `timed_out` means at least
// one *live* laggard never published before the watchdog deadline — the
// caller must NOT sweep against the shared table (the laggard's private
// reservations are invisible); defer and retry on a later pass. Dead
// laggards are certified and skipped without compromising the wave.
struct HandshakeResult {
  int sent = 0;            // signals this caller issued
  bool timed_out = false;  // a live laggard outlasted the deadline
  bool complete() const { return !timed_out; }
};

class PopEngine final : public runtime::SignalClient {
  struct NoHook {  // reclaim's default after_ticket
    void operator()() const {}
  };

 public:
  explicit PopEngine(int num_slots) : num_slots_(num_slots) {}

  // Threads must have detached; defensively unhook the signal bus for
  // the calling thread (worker threads detach via domain detach()).
  ~PopEngine() { unhook(); }

  // ---- thread lifecycle --------------------------------------------------

  void attach(int tid) {
    clear_slots(tid);
    // Relaxed atomic: a reclaimer that raced an attach on a recycled tid
    // may read either epoch — it only uses the value for staleness
    // detection against the registry, where both answers are safe.
    pt_[tid]->registry_epoch.store(
        runtime::ThreadRegistry::instance().slot_epoch(tid),
        std::memory_order_relaxed);
    // seq_cst: attached must be ordered before the SignalBus registration
    // so a reclaimer whose ping reaches this thread never reads false.
    pt_[tid]->attached.store(true, std::memory_order_seq_cst);
    runtime::SignalBus::instance().attach(this);
  }

  void detach(int tid) {
    reap(tid);  // also unblocks any reclaimer currently waiting on tid
    unhook();
  }

  // Stops pings to the calling thread reaching this engine.
  void unhook() { runtime::SignalBus::instance().detach(this); }

  // Neutralizes tid's engine state: clears its reservations, bumps its
  // publish counter so any waiter snapshotting it unblocks, and drops the
  // attach flag so future waves skip it. For a certified-dead thread (the
  // DomainCore reaper's neutralize hook) this is safe because a dead
  // thread never dereferences: dropping its reservations frees nothing it
  // can still touch.
  void reap(int tid) {
    clear_slots(tid);
    pt_[tid]->publish_counter.fetch_add(1, std::memory_order_release);
    pt_[tid]->attached.store(false, std::memory_order_release);
  }

  bool attached(int tid) const {
    return pt_[tid]->attached.load(std::memory_order_acquire);
  }

  // ---- reader fast path ----------------------------------------------------

  // Private reservation: a plain store. The paper's read() loop lives in
  // the domain (it also revalidates the source pointer).
  void reserve_local(int tid, int slot, uintptr_t v) {
    local(tid, slot).store(v, std::memory_order_relaxed);
  }

  uintptr_t local_value(int tid, int slot) const {
    return local(tid, slot).load(std::memory_order_relaxed);
  }

  void copy_local(int tid, int dst, int src) {
    reserve_local(tid, dst, local_value(tid, src));
  }

  void clear_local(int tid) {
    for (int s = 0; s < num_slots_; ++s) {
      local(tid, s).store(0, std::memory_order_relaxed);
    }
  }

  // ---- signal handler (publish) -------------------------------------------

  void on_ping(int tid) noexcept override {
    if (!pt_[tid]->attached.load(std::memory_order_relaxed)) return;
    publish(tid);
    pt_[tid]->pings.fetch_add(1, std::memory_order_relaxed);
  }

  // publishReservations() of Algorithm 2; also callable synchronously by
  // the reclaimer on itself.
  void publish(int tid) noexcept {
    for (int s = 0; s < num_slots_; ++s) {
      shared_.at(tid, s).store(local(tid, s).load(std::memory_order_relaxed),
                               std::memory_order_release);
    }
    // seq_cst fence: the slot stores above must be visible before the
    // counter bump — a reclaimer that observes the new counter value must
    // also observe every published reservation.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    pt_[tid]->publish_counter.fetch_add(1, std::memory_order_release);
  }

  // ---- reclaimer handshake --------------------------------------------------

  // Executes collect + ping + wait. Returns the handshake outcome (signal
  // count + watchdog verdict). On a complete() return, every pre-ping
  // reservation of every attached thread is visible in the shared table.
  //
  // Watchdog: the wait carries a terminal deadline (POPSMR_PING_TIMEOUT_MS,
  // 0 disables) layered over the progressive per-wave patience. On expiry
  // each laggard is classified: a kernel-dead thread is certified via the
  // registry (its epoch bump then releases every other wait loop too) and
  // skipped — its private reservations died with it, and its stale shared
  // slots keep conservatively protecting whatever they name; a live
  // unresponsive thread (e.g. one whose pings are being lost) forces
  // timed_out, because freeing without its publish would be unsafe — the
  // caller defers the sweep, which degrades memory bounds, never safety.
  //
  // Concurrent handshakes coalesce on a global round counter (even = no
  // ping wave in flight, odd = a wave is open: a leader has broadcast and
  // is waiting for the publishes to land). Only a leader broadcasts; a
  // reclaimer that observes an open wave piggybacks on that wave's
  // publish storm and makes up any gap — a thread whose publish predates
  // its own counter snapshot, or one the broadcast missed — with targeted
  // per-thread re-pings after a patience interval. Safety never depends
  // on the round logic: the counter wait below is the paper's
  // waitForAllPublished() and is what actually certifies visibility.
  HandshakeResult ping_all_and_wait(int self_tid) {
    HandshakeResult result;
    // Wave round-trip timing: one clock read on entry/exit when either
    // observability channel wants it, nothing otherwise.
    const bool obs_timing = obs::latency_on() || obs::trace_on();
    const uint64_t obs_t0 = obs_timing ? obs::now_ns() : 0;
    publish(self_tid);  // own reservations participate in the scan

    // collectPublishedCounters()
    Waited waited[runtime::kMaxThreads];
    int nwait = 0;
    auto& reg = runtime::ThreadRegistry::instance();
    const int hi = reg.max_tid();
    for (int t = 0; t <= hi; ++t) {
      if (t == self_tid || !attached(t)) continue;
      waited[nwait++] = {
          t, pt_[t]->publish_counter.load(std::memory_order_acquire),
          pt_[t]->registry_epoch.load(std::memory_order_relaxed)};
    }

    // pingAllToPublish(), coalesced: lead a wave only if none is open.
    // Every publish a wave triggers lands after its leader's broadcast,
    // and our snapshot above predates anything we go on to wait for — so
    // joining an open wave is always safe, merely possibly insufficient
    // (covered by the escalation below). The round is PROCESS-WIDE, not
    // per-engine: a ping publishes the reservations of every co-resident
    // domain on the receiving thread (the SignalBus handler notifies all
    // clients), so a reclaimer in one shard's domain can ride a wave led
    // by another's. A joined wave whose leader pinged a different
    // membership may miss some of our threads — the targeted re-ping
    // below covers exactly that gap, so cross-domain coalescing trades a
    // short patience interval for ~Nx fewer signal broadcasts when N
    // domains reclaim concurrently.
    auto& round = global_round();
    bool leading = false;
    uint64_t r = round.load(std::memory_order_acquire);
    while ((r & 1) == 0) {
      if (round.compare_exchange_weak(r, r + 1,
                                      std::memory_order_acq_rel)) {
        // We lead: signal exactly the threads attached to this domain —
        // the set whose publish counters the wait below certifies.
        result.sent = reg.ping_others(
            runtime::kPingSignal, [this](int t) { return attached(t); },
            [](int, uint64_t) {});
        leading = true;
        break;
      }
    }

    // waitForAllPublished(), round-robin over the remaining threads so
    // one patience interval covers every laggard at once (a per-thread
    // serial wait would pay it once per thread a wave missed). The
    // targeted re-ping is the liveness backstop for threads no broadcast
    // covered — e.g. a joiner whose snapshot predates some publishes.
    bool done[runtime::kMaxThreads] = {};
    int remaining = nwait;
    runtime::SpinThenYield waiter;
    uint32_t stalled_sweeps = 0;
    // Progressive patience: the first re-ping fires fast — a joiner whose
    // snapshot already contained some of the wave's publishes would
    // otherwise stall a full long interval on counters that will never
    // advance again — then backs off exponentially so a genuinely slow
    // thread is not bombarded. Both the first interval (env-tunable) and
    // the backoff are per-wave state: progress resets to the fast
    // interval, and nothing leaks into the next wave. (An earlier version
    // jumped straight to the long interval on the first escalation and
    // never restored the short one — a joiner stalling twice in one wave
    // paid 16x the intended latency.)
    const uint32_t patience_first = reping_patience_first();
    uint32_t patience = patience_first;
    // Watchdog: armed lazily at the first escalation (healthy waves never
    // touch the clock or the environment), it bounds the total wait.
    bool deadline_armed = false;
    uint64_t timeout_ms = 0;
    std::chrono::steady_clock::time_point armed_at{};
    while (remaining > 0) {
      bool progress = false;
      for (int i = 0; i < nwait; ++i) {
        if (done[i]) continue;
        const auto& w = waited[i];
        if (pt_[w.tid]->publish_counter.load(std::memory_order_acquire) !=
                w.counter_before ||                       // published
            !attached(w.tid) ||                           // detached: no refs
            reg.slot_epoch(w.tid) != w.registry_epoch) {  // slot recycled
          done[i] = true;
          --remaining;
          progress = true;
        }
      }
      if (remaining == 0) break;
      if (progress) {
        stalled_sweeps = 0;
        patience = patience_first;
      } else if (++stalled_sweeps > patience) {
        stalled_sweeps = 0;
        patience = patience < kRepingPatienceMax / 2 ? patience * 2
                                                     : kRepingPatienceMax;
        if (!deadline_armed) {
          deadline_armed = true;
          // Read per wave (not a cached static) so tests and benches can
          // vary the deadline; escalations are rare enough that a getenv
          // here is noise.
          timeout_ms =
              runtime::env_u64("POPSMR_PING_TIMEOUT_MS", kPingTimeoutMsDefault);
          armed_at = std::chrono::steady_clock::now();
        } else if (timeout_ms > 0 &&
                   std::chrono::steady_clock::now() - armed_at >=
                       std::chrono::milliseconds(timeout_ms)) {
          classify_laggards(waited, done, nwait, remaining, timeout_ms,
                            result);
          continue;  // remaining is now 0
        }
        result.sent += reg.ping_others(
            runtime::kPingSignal,
            [&](int t) {
              for (int i = 0; i < nwait; ++i) {
                if (!done[i] && waited[i].tid == t) return attached(t);
              }
              return false;
            },
            [](int, uint64_t) {});
      }
      waiter.wait();  // yields under oversubscription (§4.1.2)
    }
    if (leading) {
      round.fetch_add(1, std::memory_order_release);  // close the wave
      waves_led_.fetch_add(1, std::memory_order_relaxed);
    } else {
      waves_joined_.fetch_add(1, std::memory_order_relaxed);
    }
    // Refresh our own counter: a joiner that snapshotted us after our
    // entry publish would otherwise have to escalate to unblock.
    publish(self_tid);
    if (obs_timing) {
      const uint64_t dt = obs::now_ns() - obs_t0;
      obs::record_latency(obs::LatOp::kPingWave, dt);
      obs::trace_event(result.timed_out ? obs::TraceKind::kPingWaveTimeout
                       : leading        ? obs::TraceKind::kPingWaveLead
                                        : obs::TraceKind::kPingWaveJoin,
                       obs_t0, dt, static_cast<uint32_t>(result.sent));
    }
    return result;
  }

  // ---- reclamation pass ------------------------------------------------------

  // One publish-on-ping pass over the caller's retire list (HazardPtrPOP,
  // HazardEraPOP, EpochPOP's fallback): take a ticket, run `after_ticket`
  // (HazardEraPOP advances its era there), reap dead owners, run the
  // handshake, certify the ticket, then free every retired node
  // `freeable(published, node)` accepts, `published` being the shared
  // table. Returns the number freed. A timed-out handshake frees and
  // certifies nothing: a live laggard never published, so its private
  // reservations could name anything in any retire list — the sweep is
  // deferred to a later pass (bounded memory degrades, safety does not).
  template <class Neutralize, class Freeable, class AfterTicket = NoHook>
  uint64_t reclaim(smr::DomainCore& core, int tid, Neutralize&& neutralize,
                   Freeable&& freeable, AfterTicket&& after_ticket = {}) {
    // A seal whose ticket load read below this ticket is coherence-ordered
    // before this RMW, which puts the seal's fence before it in S — the
    // lazy sweep's safety (header, Property 2). The RMW chain also makes
    // every earlier handshake's entry happen before ours.
    const uint64_t ticket =  // seq_cst: an RMW in S, for the order above
        tickets_->issued.fetch_add(1, std::memory_order_seq_cst) + 1;
    after_ticket();
    auto& st = core.stats(tid);
    core.reap_dead(tid, neutralize);
    const auto hs = ping_all_and_wait(tid);
    st.signals_sent += static_cast<uint64_t>(hs.sent);
    uint64_t freed = 0;
    if (hs.complete()) {
      certify(ticket);  // before our own sweep: the others need not wait
      freed = sweep_published(core, tid, freeable, smr::RetireList::kWhole);
    } else {
      st.waves_timed_out += 1;
    }
    st.pings_received = pings_received(tid);
    return freed;
  }

  // ---- lazy sweep (retire path) ----------------------------------------------

  // Runs after each retire of a POP scheme, once DomainCore::retire has
  // pushed the node (and run the scheme's own pass, if due). Seals the
  // open segments every seal_every retires; then, if a completed handshake
  // (any thread's) covers a sealed segment, sweeps the covered segments
  // against the shared table, with the caller's own reservations
  // published first. Returns the number freed. The fast path reads
  // owner-local words and `certified`, which changes once per handshake;
  // the fence is paid once per seal, not per retire.
  template <class Freeable>
  uint64_t on_retired(smr::DomainCore& core, int tid, Freeable&& freeable) {
    auto& rl = core.retire_list(tid);
    if (rl.open_length() >= seal_every(core.config())) {
      // seq_cst fence: every unlink of the open segments' nodes precedes
      // it, and the ticket load after it then precedes, in S, any
      // handshake whose ticket it did not see (header, Property 2).
      std::atomic_thread_fence(std::memory_order_seq_cst);
      rl.seal(tickets_->issued.load(std::memory_order_relaxed));
    }
    // Acquire: pairs with certify's release, so the collect below sees
    // every publish the certifying handshake waited for.
    const uint64_t c = tickets_->certified.load(std::memory_order_acquire);
    if (c <= rl.oldest_sealed()) return 0;
    publish(tid);  // the caller may still hold a node it just retired
    return sweep_published(core, tid, freeable, c);
  }

  // ---- shared-table queries (reclaimer side) ---------------------------------

  // Appends every non-zero published value into `out` (sorted); returns n.
  int collect_shared(uintptr_t* out) const {
    return shared_.collect(num_slots_, out).n;
  }

  uint64_t pings_received(int tid) const {
    return pt_[tid]->pings.load(std::memory_order_relaxed);
  }
  uint64_t publish_count(int tid) const {
    return pt_[tid]->publish_counter.load(std::memory_order_acquire);
  }

  // Completed ping waves (the round parity protocol above) — PROCESS-WIDE
  // across every PopEngine, since the round is shared; exposed for tests
  // asserting that concurrent reclaimers (same domain or co-resident
  // domains) share one wave. Compare deltas, not absolutes.
  static uint64_t handshake_rounds() {
    return global_round().load(std::memory_order_acquire) / 2;
  }

  // This engine's handshake outcomes: waves it broadcast vs waves it rode
  // (another reclaimer's — possibly another domain's — open wave).
  uint64_t waves_led() const {
    return waves_led_.load(std::memory_order_relaxed);
  }
  uint64_t waves_joined() const {
    return waves_joined_.load(std::memory_order_relaxed);
  }

 private:
  // No-progress sweeps before re-pinging the lagging threads directly.
  // The first interval is short (~128 spins + ~128 yields): it is the
  // recovery path for a joiner that can make no progress without a ping.
  // Escalation doubles the interval per re-ping up to the max, so an
  // open wave's publishes (microseconds, plus scheduling) normally land
  // before the next re-ping while a genuinely stuck thread is not
  // signal-bombed.
  static constexpr uint32_t kRepingPatienceFirst = 1u << 8;
  static constexpr uint32_t kRepingPatienceMax = 1u << 12;
  // Watchdog deadline when POPSMR_PING_TIMEOUT_MS is unset. Generous: a
  // healthy handshake completes in microseconds even under sanitizers, so
  // a second of silence means lost signals or a corpse — and a spurious
  // expiry merely defers one sweep (safe by construction).
  static constexpr uint64_t kPingTimeoutMsDefault = 1000;

  // First-interval patience, env-tunable once per process: the knob exists
  // for experiments sweeping handshake latency vs signal volume.
  static uint32_t reping_patience_first() {
    static const uint32_t v = static_cast<uint32_t>(runtime::env_u64(
        "POPSMR_PING_PATIENCE", kRepingPatienceFirst));
    return v == 0 ? 1 : v;
  }

  struct Waited {
    int tid;
    uint64_t counter_before;
    uint64_t registry_epoch;
  };

  // Retires between seals: 1/64 of the handshake tick (8 at the default
  // 512), so a node rarely misses the next handshake for want of a seal
  // and the fence is amortized over as many retires (1 at the tiny
  // thresholds tests use). On hash-updates a sixteenth left ~15% more
  // nodes unreclaimed; 1/128 gained nothing measurable over 1/64.
  static uint64_t seal_every(const smr::SmrConfig& cfg) {
    const uint64_t n = cfg.retire_threshold / 64;
    return n > 0 ? n : 1;
  }

  // Frees every node of the segments a handshake with ticket `below`
  // covers (kWhole: the whole list) that `freeable` accepts against the
  // shared table, then marks the survivors covered.
  template <class Freeable>
  uint64_t sweep_published(smr::DomainCore& core, int tid, Freeable& freeable,
                           uint64_t below) {
    const smr::Reservations published =
        shared_.collect(num_slots_, core.scan_scratch(tid));
    const uint64_t freed = core.sweep_retired(
        tid,
        [&](smr::Reclaimable* node) { return freeable(published, node); },
        below);
    core.retire_list(tid).cover(below);
    return freed;
  }

  // Raises `certified` to `ticket` (handshakes may complete out of ticket
  // order). Release: a lazy sweeper that reads the new value also sees
  // every shared-slot store this handshake's wait observed.
  void certify(uint64_t ticket) {
    uint64_t c = tickets_->certified.load(std::memory_order_relaxed);
    while (c < ticket && !tickets_->certified.compare_exchange_weak(
                             c, ticket, std::memory_order_release,
                             std::memory_order_relaxed)) {
    }
  }

  // Deadline expiry: resolve every remaining laggard one way or the
  // other so the wave can close. Dead → certify (the registry epoch bump
  // releases every other waiter on the corpse too) and skip; live →
  // give up on this wave (timed_out) with a one-line diagnostic naming
  // the stuck tid.
  void classify_laggards(const Waited* waited, bool* done, int nwait,
                         int& remaining, uint64_t timeout_ms,
                         HandshakeResult& result) {
    auto& reg = runtime::ThreadRegistry::instance();
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
                   "alive but never published (heartbeat=%llu) — deferring "
                   "this sweep\n",
                   static_cast<unsigned long long>(timeout_ms), w.tid,
                   static_cast<unsigned long long>(reg.heartbeat(w.tid)));
    }
  }

  void clear_slots(int tid) {
    for (int s = 0; s < num_slots_; ++s) {
      local(tid, s).store(0, std::memory_order_relaxed);
      shared_.at(tid, s).store(0, std::memory_order_release);
    }
  }

  std::atomic<uintptr_t>& local(int tid, int s) {
    return pt_[tid]->local_slots[s];
  }
  const std::atomic<uintptr_t>& local(int tid, int s) const {
    return pt_[tid]->local_slots[s];
  }

  struct PerThread {
    std::atomic<uintptr_t> local_slots[smr::kMaxSlots] = {};
    std::atomic<uint64_t> publish_counter{0};
    std::atomic<uint64_t> pings{0};
    std::atomic<bool> attached{false};
    // Atomic because a handshake may read it while a new thread attaches
    // on a recycled tid (change-detection only, so relaxed suffices).
    std::atomic<uint64_t> registry_epoch{0};
  };

  // Handshake round, shared by every engine in the process: even = idle,
  // odd = a leader (in some domain) is delivering pings. One cache line
  // touched only on the reclaim path, never by readers.
  static std::atomic<uint64_t>& global_round() {
    static runtime::Padded<std::atomic<uint64_t>> r;
    return *r;
  }

  // This engine's handshake tickets: `issued` counts handshakes begun,
  // `certified` is the highest completed one's ticket. Both change once
  // per handshake and `certified` is read on every retire, so they share
  // a line of their own.
  struct Tickets {
    std::atomic<uint64_t> issued{0};
    std::atomic<uint64_t> certified{0};
  };

  int num_slots_;
  runtime::Padded<Tickets> tickets_;
  runtime::Padded<PerThread> pt_[runtime::kMaxThreads];
  smr::SlotTable shared_;
  std::atomic<uint64_t> waves_led_{0};
  std::atomic<uint64_t> waves_joined_{0};
};

}  // namespace pop::core
