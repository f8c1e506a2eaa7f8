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
// mode). The snapshot, ping and wait are runtime::ping_and_wait
// (handshake.hpp), shared with NBR and the AsymFence fallback; it also
// coalesces concurrent reclaimers into one ping wave.
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
//
// Per-thread state (private slots, publish counter, attach flag) and the
// shared slots live in runtime::TidRows, allocated on a thread's first
// touch. attach() fills both rows before it sets the attach flag, so a
// handshake that finds no row for a tid treats it exactly as an
// unattached one: it neither pings nor waits for it (tid_rows.hpp). The
// handler only find()s rows: a ping that reaches a thread this engine has
// no row for (attached to another engine) returns without allocating.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/obs.hpp"
#include "runtime/handshake.hpp"
#include "runtime/padded.hpp"
#include "runtime/signal_bus.hpp"
#include "runtime/thread_registry.hpp"
#include "runtime/tid_rows.hpp"
#include "smr/domain_base.hpp"
#include "smr/hp_slots.hpp"

namespace pop::core {

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
    PerThread& pt = pt_.get(tid);
    // Relaxed atomic: a reclaimer that raced an attach on a recycled tid
    // may read either epoch — it only uses the value for staleness
    // detection against the registry, where both answers are safe.
    pt.registry_epoch.store(runtime::ThreadRegistry::instance().slot_epoch(tid),
                            std::memory_order_relaxed);
    // seq_cst: attached must be ordered before the SignalBus registration
    // so a reclaimer whose ping reaches this thread never reads false.
    pt.attached.store(true, std::memory_order_seq_cst);
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
    PerThread& pt = pt_.get(tid);
    pt.publish_counter.fetch_add(1, std::memory_order_release);
    pt.attached.store(false, std::memory_order_release);
  }

  bool attached(int tid) const {
    const PerThread* pt = pt_.find(tid);
    return pt != nullptr && pt->attached.load(std::memory_order_acquire);
  }

  // ---- reader fast path ----------------------------------------------------

  // The private slot: a reservation is a plain relaxed store to it. The
  // paper's read() loop lives in the domain (it also revalidates the
  // source pointer) and finds the row once per read, not once per retry.
  std::atomic<uintptr_t>& local_slot(int tid, int slot) {
    return pt_.get(tid).local_slots[slot];
  }

  void copy_local(int tid, int dst, int src) {
    PerThread& pt = pt_.get(tid);
    pt.local_slots[dst].store(
        pt.local_slots[src].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }

  void clear_local(int tid) {
    PerThread& pt = pt_.get(tid);
    for (int s = 0; s < num_slots_; ++s) {
      pt.local_slots[s].store(0, std::memory_order_relaxed);
    }
  }

  // ---- signal handler (publish) -------------------------------------------

  // A tid with no row here never attached to this engine (the ping was
  // for another one): nothing to publish, and nothing may be allocated.
  void on_ping(int tid) noexcept override {
    PerThread* pt = pt_.find(tid);
    if (pt == nullptr || !pt->attached.load(std::memory_order_relaxed)) return;
    std::atomic<uintptr_t>* shared = shared_.find(tid);
    if (shared == nullptr) return;  // unreachable: attach fills it first
    // Counted before the publish, whose release bump then carries it: a
    // reclaimer that saw this publish also sees the ping counted.
    pt->pings.fetch_add(1, std::memory_order_relaxed);
    publish(*pt, shared);
  }

  // publishReservations() of Algorithm 2, run synchronously by the
  // reclaimer on itself.
  void publish(int tid) noexcept {
    publish(pt_.get(tid), &shared_.at(tid, 0));
  }

  // ---- reclaimer handshake --------------------------------------------------

  // Own publish, then runtime::ping_and_wait over the attached threads,
  // then own publish again. On a complete() return, every pre-ping
  // reservation of every attached thread is in the shared table.
  runtime::HandshakeResult ping_all_and_wait(int self_tid) {
    // Wave round-trip timing: one clock read on entry/exit when either
    // observability channel wants it, nothing otherwise.
    const bool obs_timing = obs::latency_on() || obs::trace_on();
    const uint64_t obs_t0 = obs_timing ? obs::now_ns() : 0;
    publish(self_tid);  // own reservations participate in the scan

    const runtime::HandshakeResult result = runtime::ping_and_wait(
        [&](auto&& take) {
          pt_.for_each([&](int t, const PerThread& pt) {
            if (t == self_tid || !pt.attached.load(std::memory_order_acquire)) {
              return;
            }
            take(t, pt.publish_counter, pt.attached, pt.registry_epoch);
          });
        },
        [this](int t) { return attached(t); });
    if (result.led) {
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
                       : result.led     ? obs::TraceKind::kPingWaveLead
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

  // Every non-zero published value, sorted, in `buf`.
  smr::Reservations collect_shared(smr::ScanBuffer& buf) const {
    return shared_.collect(num_slots_, buf);
  }

  uint64_t pings_received(int tid) const {
    const PerThread* pt = pt_.find(tid);
    return pt == nullptr ? 0 : pt->pings.load(std::memory_order_relaxed);
  }
  uint64_t publish_count(int tid) const {
    const PerThread* pt = pt_.find(tid);
    return pt == nullptr
               ? 0
               : pt->publish_counter.load(std::memory_order_acquire);
  }

  // Threads this engine has allocated per-thread state for.
  int thread_rows() const { return pt_.count(); }


  // This engine's handshake outcomes: waves it broadcast vs waves it rode
  // (another reclaimer's — possibly another domain's — open wave).
  uint64_t waves_led() const {
    return waves_led_.load(std::memory_order_relaxed);
  }
  uint64_t waves_joined() const {
    return waves_joined_.load(std::memory_order_relaxed);
  }

 private:
  struct PerThread;

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

  // Copies the private slots to the shared ones, then bumps the publish
  // counter; what the handler and the reclaimer's own publish run.
  void publish(PerThread& pt, std::atomic<uintptr_t>* shared) noexcept {
    for (int s = 0; s < num_slots_; ++s) {
      shared[s].store(pt.local_slots[s].load(std::memory_order_relaxed),
                      std::memory_order_release);
    }
    // seq_cst fence: the slot stores above must be visible before the
    // counter bump — a reclaimer that observes the new counter value must
    // also observe every published reservation.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    pt.publish_counter.fetch_add(1, std::memory_order_release);
  }

  void clear_slots(int tid) {
    clear_local(tid);
    shared_.clear_row(tid, num_slots_);
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
  runtime::TidRows<PerThread> pt_;
  smr::SlotTable shared_;
  std::atomic<uint64_t> waves_led_{0};
  std::atomic<uint64_t> waves_joined_{0};
};

}  // namespace pop::core
