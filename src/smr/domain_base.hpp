// What every reclamation scheme shares. DomainCore is the bookkeeping —
// per-thread retire lists, statistics, attach/detach ownership, the
// zombie reaper, the retire cadence with its memory-pressure backstop,
// node construction with birth-era stamping, and teardown draining.
// DomainBase<Scheme> is the CRTP base that turns it into the surface the
// data structures call (Guard, attach/detach, create, stats), so a scheme
// file holds only its algorithm.
//
// A *domain* is one reclamation instance; a data structure owns exactly
// one. Threads attach lazily on their first operation. All per-thread
// state is indexed by the dense runtime::my_tid() and kept in
// runtime::TidRows: a row is allocated when its thread first touches the
// domain, so a domain costs a table of row pointers plus one row per
// thread that used it (not kMaxThreads rows), and a scan reads a tid with
// no row as one that never attached. tid_rows.hpp argues why such a null
// read cannot hide a reservation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

#include "obs/obs.hpp"
#include "runtime/env.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/thread_registry.hpp"
#include "runtime/tid_rows.hpp"
#include "smr/audit.hpp"
#include "smr/hp_slots.hpp"
#include "smr/retire_list.hpp"
#include "smr/smr_config.hpp"
#include "smr/tagged.hpp"

namespace pop::smr {

template <class Scheme>
class DomainBase;

// What a domain creates: a node a sweep can free by its Reclaimable
// address alone (reclaimable.hpp).
template <class T>
concept ManagedNode = std::is_base_of_v<Reclaimable, T> &&
                      std::is_trivially_destructible_v<T>;

// True when Smr's nodes carry the 24-B era header rather than the 8-B one
// (reclaimable.hpp): what a data structure's node-size pin depends on.
template <class Smr>
inline constexpr bool kEraHeader =
    std::is_base_of_v<EraReclaimable, typename Smr::NodeHeader>;

// Trailing storage for DomainBase::create: a node that owns an array keeps
// it in the same pool block, past sizeof(T).
struct TailBytes {
  std::size_t bytes;
};

class DomainCore {
 public:
  // `scheme` is the owning scheme's kName, carried only so contract-audit
  // reports can name the offender (audit.hpp).
  explicit DomainCore(const SmrConfig& cfg, const char* scheme = "?")
      : cfg_(cfg),
        scheme_(scheme),
        pressure_bound_(cfg.pressure_bound != 0
                            ? cfg.pressure_bound
                            : runtime::env_u64("POPSMR_PRESSURE_BOUND", 0)) {}

  ~DomainCore() {
    // Teardown frees everything still in flight by design; the shadow set
    // must not outlive the domain and report those drains as violations.
    if (audit::on()) shadow_.clear();
    // The owning data structure has been (or is being) destroyed: nothing
    // can still hold references, so drain every retire list. Only the
    // rows that exist hold one (a retire list lives in its thread's row).
    pt_.for_each(
        [](int, PerThread& pt) { pt.stats.freed += pt.retire.drain(); });
  }

  const SmrConfig& config() const { return cfg_; }

  bool attached(int tid) const {
    const PerThread* pt = pt_.find(tid);
    return pt != nullptr && pt->attached.load(std::memory_order_acquire);
  }

  // The flag attached(tid) read; only for a tid whose row exists.
  const std::atomic<bool>& attach_flag(int tid) const {
    return pt_.find(tid)->attached;
  }

  // Registry epoch recorded for the thread that owns `tid`'s state here
  // (0 for a tid that never attached).
  uint64_t owner_epoch(int tid) const {
    const PerThread* pt = pt_.find(tid);
    return pt == nullptr ? 0
                         : pt->owner_epoch.load(std::memory_order_relaxed);
  }

  // Per-thread rows allocated so far: the threads this domain pays for.
  int thread_rows() const { return pt_.count(); }

  // True iff `tid` is attached but its recorded owner is certified gone
  // (exited without detaching, or kernel-dead). Cheap enough for wait
  // loops: the common live-owner answer needs no syscall when the
  // heartbeat is advancing.
  bool owner_departed(int tid) {
    auto& reg = runtime::ThreadRegistry::instance();
    return attached(tid) && reg.owner_departed(tid, owner_epoch(tid));
  }

  // ---- zombie reaper -----------------------------------------------------
  //
  // Certifies attached tids whose owner is gone, neutralizes their
  // scheme-level reservation state via `neutralize(tid)`, and adopts
  // their orphaned retire lists into the calling thread's list so the
  // backlog rejoins normal sweeps. Certification rules, in order:
  //   1. registry slot epoch moved past the recorded owner epoch — the
  //      owner deregistered (normal exit without detach) or the slot was
  //      recycled; either way the recorded owner can never return.
  //   2. owner still registered but its heartbeat froze across
  //      kStaleScansBeforeProbe reap passes AND tgkill(sig 0) says the
  //      kernel thread is gone (TLS destructor never ran). The heartbeat
  //      gate keeps the syscall off the common path; tgkill alone
  //      certifies (a parked-but-live reader probes as alive).
  // Runs under a try-lock: reaps are rare, and skipping when another
  // thread is already reaping (or an attacher holds the lock) is always
  // safe — the next pass retries. Call from reclamation passes, before
  // computing the protected set, so neutralized state frees same-pass.
  template <class Neutralize>
  void reap_dead(int self_tid, Neutralize&& neutralize) {
    if (reap_mu_.exchange(true, std::memory_order_acquire)) return;
    const bool obs_timing = obs::latency_on() || obs::trace_on();
    const uint64_t obs_t0 = obs_timing ? obs::now_ns() : 0;
    uint64_t obs_reaped = 0;
    auto& reg = runtime::ThreadRegistry::instance();
    PerThread& self = pt_.get(self_tid);
    pt_.for_each([&](int t, PerThread& pt) {
      if (t == self_tid) return;
      if (!pt.attached.load(std::memory_order_acquire)) return;
      const uint64_t owner = pt.owner_epoch.load(std::memory_order_relaxed);
      bool departed = reg.slot_epoch(t) != owner || !reg.alive(t);
      if (!departed) {
        // Same owner, still registered: suspicion requires a frozen
        // heartbeat across passes before the kernel probe is spent.
        const uint64_t hb = reg.heartbeat(t);
        if (hb != pt.reap_hb) {
          pt.reap_hb = hb;
          pt.reap_stale = 0;
          return;
        }
        if (++pt.reap_stale < kStaleScansBeforeProbe) return;
        pt.reap_stale = 0;
        if (!reg.certify_zombie(t, owner)) return;
        departed = true;
      }
      neutralize(t);
      const uint64_t adopted = self.retire.adopt(pt.retire);
      pt.attached.store(false, std::memory_order_release);
      auto& st = self.stats;
      st.tids_reaped += 1;
      st.orphans_adopted += adopted;
      ++obs_reaped;
      if (obs::trace_on()) {
        obs::trace_event(obs::TraceKind::kZombieCertified, obs::now_ns(), 0,
                         static_cast<uint32_t>(t));
      }
      std::fprintf(stderr,
                   "popsmr: reaped dead tid %d (adopted %llu orphaned "
                   "retires)\n",
                   t, static_cast<unsigned long long>(adopted));
    });
    reap_mu_.store(false, std::memory_order_release);
    // Reap certification duration only when the pass actually certified
    // someone — the common empty scan would otherwise drown the signal.
    if (obs_timing && obs_reaped > 0) {
      obs::record_latency(obs::LatOp::kReap, obs::now_ns() - obs_t0);
    }
  }

  // ---- retire cadence ------------------------------------------------------
  //
  // Appends `n`, retired at `epoch`, to the caller's retire list and runs
  // the scheme's reclamation pass once every retire_threshold retires,
  // counted by a monotonic per-thread tick. EBR and EpochPOP pass the
  // epoch their sweeps free by, which RetireList keeps per segment; every
  // other scheme passes 0. Schemes whose pass is expensive (the POP
  // handshake, NBR's ack round) or whose sweeps can legitimately keep
  // nodes pinned (era schemes: any long-lived node's lifespan intersects
  // every current reservation) must trigger on this tick rather than on
  // list length: a length trigger re-runs the full pass on *every* retire
  // once the pinned population alone reaches the threshold, a reclamation
  // storm that degrades era-based publish-on-ping into a livelock.
  //
  // Off-cadence, the memory-pressure backstop may force the pass (see
  // pressure_check). `pass(forced)` runs it; a pass that cannot run here
  // (BRC inside its critical section, NBR in a read phase) returns false
  // and the scheme later calls run_deferred from where it can.
  template <class Pass>
  void retire(int tid, Reclaimable* n, uint64_t epoch, Pass&& pass) {
    retire(
        tid, n, epoch,
        [&](uint64_t) {
          return ++pt_.get(tid).retire_count % cfg_.retire_threshold == 0;
        },
        pass);
  }

  // The same with the scheme's own trigger in place of the tick: `due`
  // gets the list length after the push. EpochPOP runs its epoch sweep
  // from begin_op and keeps only Algorithm 3's list-length escalation to
  // the POP pass here.
  template <class Due, class Pass>
  void retire(int tid, Reclaimable* n, uint64_t epoch, Due&& due,
              Pass&& pass) {
    if (due(push(tid, n, epoch))) {
      run_pass(tid, false, pass);
    } else if (pressure_check(tid)) {
      run_pass(tid, true, pass);
    }
  }

  // Appends with no reclamation pass at all (NR, the leaky baseline).
  void retire(int tid, Reclaimable* n) { push(tid, n, 0); }

  // Runs the pass an earlier retire deferred, if any.
  template <class Pass>
  void run_deferred(int tid, Pass&& pass) {
    auto& pt = pt_.get(tid);
    if (pt.deferred == 0) return;
    const bool forced = (pt.deferred & kForcedPass) != 0;
    pt.deferred = 0;
    pass();
    if (forced) pressure_relieved_or_warn(tid);
  }

  // Allocates a pool block of sizeof(T) + `tail` bytes, constructs T at
  // its front and, for an era header, stamps the birth era. A sweep frees
  // the block by its Reclaimable address with no per-type dispatch
  // (reclaimable.hpp), so T must be trivially destructible with the base
  // at offset 0; the tail holds any array T owns.
  template <class T, class... Args>
  T* create_node(uint64_t birth_era, std::size_t tail, Args&&... args) {
    static_assert(ManagedNode<T>,
                  "SMR-managed nodes derive from smr::Reclaimable and are "
                  "freed without running a destructor: keep owned arrays "
                  "in the tail bytes");
    void* mem = runtime::PoolAllocator::instance().allocate(sizeof(T) + tail);
    T* n = ::new (mem) T(std::forward<Args>(args)...);
    if (static_cast<void*>(static_cast<Reclaimable*>(n)) != n) {
      std::fputs("popsmr: smr::Reclaimable must be a node's first base\n",
                 stderr);  // a layout check that folds away when it holds
      std::abort();
    }
    if constexpr (std::is_base_of_v<EraReclaimable, T>) {
      n->birth_era = birth_era;
    }
    return n;
  }

  // One reclamation sweep over the caller's retire list, counted in the
  // stats (scans, freed): freeable blocks are chained per size class and
  // handed to this thread's free lists whole (see PoolAllocator::FreeBatch)
  // instead of one free per node. `below` limits it to the segments a
  // handshake with that ticket covers (RetireList::sweep_batch; the
  // publish-on-ping lazy sweep). Returns the number freed.
  template <class Pred>
  uint64_t sweep_retired(int tid, Pred&& can_free,
                         uint64_t below = RetireList::kWhole) {
    return counted_sweep(tid, [&](auto& batch, auto& on_free) {
      return pt_.get(tid).retire.sweep_batch(
          [&](Reclaimable* node) {
            if (!can_free(node)) return false;
            on_free(node);
            return true;
          },
          batch, below);
    });
  }

  // The epoch sweep of EBR and EpochPOP, counted the same way: frees the
  // retire-list segments whose retire epoch is below `min_epoch` whole,
  // without visiting a node of the others (RetireList::sweep_epochs).
  uint64_t sweep_epochs(int tid, uint64_t min_epoch) {
    return counted_sweep(tid, [&](auto& batch, auto& on_free) {
      return pt_.get(tid).retire.sweep_epochs(min_epoch, batch, on_free);
    });
  }

  RetireList& retire_list(int tid) { return pt_.get(tid).retire; }
  ThreadStats& stats(int tid) { return pt_.get(tid).stats; }

  // The caller's buffer for reservation scans (SlotTable::collect grows
  // it to the registry's tid high-water mark). Owner-thread only; empty
  // until the thread's first reclamation pass, so idle (thread, domain)
  // pairs cost nothing.
  ScanBuffer& scan_scratch(int tid) { return pt_.get(tid).scan_scratch; }

  StatsSnapshot stats_snapshot() const {
    StatsSnapshot s;
    // Rows that were never allocated hold no counts (the mem-timeline
    // sampler calls this at cadence, and a sharded service multiplies it
    // by the shard count).
    pt_.for_each([&s](int, const PerThread& pt) { s.absorb(pt.stats); });
    return s;
  }

  DomainCore(const DomainCore&) = delete;
  DomainCore& operator=(const DomainCore&) = delete;

 private:
  template <class Scheme>
  friend class DomainBase;

  // Heartbeat-frozen reap passes before spending a tgkill probe on a
  // same-epoch registered laggard.
  static constexpr uint8_t kStaleScansBeforeProbe = 2;
  // Retires between domain-wide unreclaimed snapshots for the pressure
  // backstop (the snapshot walks every row).
  static constexpr uint64_t kPressureCheckEvery = 32;
  // PerThread::deferred bits.
  static constexpr uint8_t kPassDue = 1;
  static constexpr uint8_t kForcedPass = 2;

  struct PerThread {
    RetireList retire;
    ThreadStats stats;
    uint64_t retire_count = 0;  // owner-thread only
    uint64_t pressure_tick = 0;  // owner-thread only
    bool pressure_warned = false;  // owner-thread only
    uint8_t deferred = 0;  // owner-thread only: a pass awaits run_deferred
    ScanBuffer scan_scratch;  // owner-thread only
    std::atomic<bool> attached{false};
    // Reaper bookkeeping, guarded by reap_mu_: the heartbeat the last
    // reap pass saw and how many passes it has stayed frozen.
    uint8_t reap_stale = 0;
    uint64_t reap_hb = 0;
    // Registry epoch of the thread this slot's state belongs to; lets the
    // reaper (and a recycled-tid attacher) tell a live owner from a
    // corpse. Relaxed everywhere: change-detection only.
    std::atomic<uint64_t> owner_epoch{0};
  };

  // True exactly once per (thread, domain) *ownership*: the caller runs
  // its scheme-specific attach work when this returns true. Ownership is
  // epoch-aware: if the slot's recorded owner departed without detaching
  // (a killed worker) and the registry recycled the tid to the calling
  // thread, this returns true again — the new owner re-initializes the
  // scheme state instead of silently inheriting a corpse's reservations.
  // The fast path also feeds the reaper's heartbeat (one relaxed
  // increment on the thread's own registry line per operation bracket).
  bool attach_if_new(int tid) {
    auto& reg = runtime::ThreadRegistry::instance();
    reg.heartbeat_bump(tid);
    auto& pt = pt_.get(tid);
    if (pt.attached.load(std::memory_order_relaxed) &&
        pt.owner_epoch.load(std::memory_order_relaxed) == reg.slot_epoch(tid)) {
      return false;
    }
    return attach_slow(tid);
  }

  void mark_detached(int tid) {
    // Runs on the detaching thread itself, so the thread-local bracket
    // depth it checks is the right one (the reaper clears `attached`
    // directly, never through here — a corpse's depth is unreachable).
    if (audit::on()) audit::check_detach(scheme_, tid);
    pt_.get(tid).attached.store(false, std::memory_order_release);
  }

  // Slow path of attach_if_new: first attach, or takeover of a slot whose
  // previous owner departed without detaching. Serialized against
  // reap_dead by the reap lock so a reaper can never neutralize state the
  // new owner just initialized (and vice versa).
  bool attach_slow(int tid) {
    auto& reg = runtime::ThreadRegistry::instance();
    while (reap_mu_.exchange(true, std::memory_order_acquire)) {
      while (reap_mu_.load(std::memory_order_relaxed)) {
      }
    }
    auto& pt = pt_.get(tid);
    pt.owner_epoch.store(reg.slot_epoch(tid), std::memory_order_relaxed);
    pt.attached.store(true, std::memory_order_release);
    reap_mu_.store(false, std::memory_order_release);
    return true;
  }

  // Runs `sweep(batch, on_free)` — one pass over the caller's retire
  // list that chains what it frees into `batch` and calls on_free(node)
  // on each — timed, traced and counted in the stats (scans, freed).
  template <class Sweep>
  uint64_t counted_sweep(int tid, Sweep&& sweep) {
    const bool obs_timing = obs::latency_on() || obs::trace_on();
    const uint64_t obs_t0 = obs_timing ? obs::now_ns() : 0;
    runtime::PoolAllocator::FreeBatch batch;
    uint64_t freed;
    if (audit::on()) {
      // Audit wrapper: every block the sweep decides to free leaves the
      // shadow set here, so a recycled allocation retired again later is
      // a fresh insert, not a false double-retire.
      auto on_free = [&](Reclaimable* node) {
        shadow_.on_free(scheme_, tid, node);
      };
      freed = sweep(batch, on_free);
    } else {
      auto on_free = [](Reclaimable*) {};
      freed = sweep(batch, on_free);
    }
    if (obs_timing) {
      const uint64_t dt = obs::now_ns() - obs_t0;
      obs::record_latency(obs::LatOp::kSweep, dt);
      obs::trace_event(obs::TraceKind::kSweep, obs_t0, dt,
                       static_cast<uint32_t>(
                           freed > UINT32_MAX ? UINT32_MAX : freed));
    }
    auto& st = pt_.get(tid).stats;
    st.scans += 1;
    st.freed += freed;
    return freed;
  }

  // Appends to the caller's retire list; returns the new length.
  uint64_t push(int tid, Reclaimable* n, uint64_t epoch) {
    auto& pt = pt_.get(tid);
    if (audit::on()) shadow_.on_retire(scheme_, tid, n);
    pt.retire.push(n, epoch);
    pt.stats.retired += 1;
    if (obs::trace_on()) {  // guard keeps the clock read off the hot path
      obs::trace_event(obs::TraceKind::kRetire, obs::now_ns(), 0, 0);
    }
    if (pt.retire.length() > pt.stats.max_retire_len) {
      pt.stats.max_retire_len = pt.retire.length();
    }
    return pt.retire.length();
  }

  // A pass that returns void always runs; one that returns bool may
  // decline (false), and is then remembered for run_deferred.
  template <class Pass>
  void run_pass(int tid, bool forced, Pass& pass) {
    if constexpr (std::is_void_v<decltype(pass(forced))>) {
      pass(forced);
    } else if (!pass(forced)) {
      pt_.get(tid).deferred |= forced ? (kPassDue | kForcedPass) : kPassDue;
      return;
    }
    if (forced) pressure_relieved_or_warn(tid);
  }

  // ---- memory-pressure backstop ------------------------------------------
  //
  // True when the caller should run a forced reclamation pass: the
  // domain-wide unreclaimed count exceeds the configured bound. The hot
  // path pays one counter increment; the snapshot only runs every
  // kPressureCheckEvery retires. A forced pass is followed by
  // pressure_relieved_or_warn() — if the pass could not get back under the
  // bound (a pinned reservation legitimately holds nodes), the backstop
  // degrades to defer-and-warn rather than blocking or looping.
  bool pressure_check(int tid) {
    if (pressure_bound_ == 0) return false;
    auto& pt = pt_.get(tid);
    if ((++pt.pressure_tick % kPressureCheckEvery) != 0) return false;
    if (stats_snapshot().unreclaimed() <= pressure_bound_) {
      pt.pressure_warned = false;
      return false;
    }
    pt.stats.pressure_events += 1;
    if (obs::trace_on()) {
      obs::trace_event(obs::TraceKind::kPressure, obs::now_ns(), 0,
                       static_cast<uint32_t>(tid));
    }
    return true;
  }

  void pressure_relieved_or_warn(int tid) {
    auto& pt = pt_.get(tid);
    pt.stats.forced_handshakes += 1;
    const uint64_t now = stats_snapshot().unreclaimed();
    if (now <= pressure_bound_) {
      pt.pressure_warned = false;
      return;
    }
    if (!pt.pressure_warned) {
      pt.pressure_warned = true;
      std::fprintf(stderr,
                   "popsmr: memory pressure persists after forced pass "
                   "(unreclaimed=%llu > bound=%llu); deferring\n",
                   static_cast<unsigned long long>(now),
                   static_cast<unsigned long long>(pressure_bound_));
    }
  }

  SmrConfig cfg_;
  const char* scheme_;
  audit::DomainShadow shadow_;
  uint64_t pressure_bound_;
  std::atomic<bool> reap_mu_{false};
  runtime::TidRows<PerThread> pt_;
};

// Frees a node no other thread can reach: one created but never published
// (e.g. a failed insert's fresh node), or a live node of a structure being
// torn down at quiescence. No reclamation protocol is needed.
template <ManagedNode T>
void destroy_unpublished(T* p) noexcept {
  runtime::pool_free(p);
}

// destroy_unpublished over a quiescent list linked through `next` (a list
// structure's teardown), whatever its mark bits.
template <class T>
void destroy_list(T* head) noexcept {
  while (head != nullptr) {
    T* next = strip_mark(head->next.load(std::memory_order_relaxed));
    destroy_unpublished(head);
    head = next;
  }
}

// ---- batch bracket ---------------------------------------------------------
//
// A pipelined front end (the networked KV server) drains a whole batch of
// point operations per wakeup. Opening and closing the scheme's operation
// bracket once per *batch* instead of once per op amortizes the per-op
// entry cost — for the epoch/era schemes that is the seq_cst announcement
// store, the exact cost axis the paper measures — at the price of holding
// the entry-time reservation for the whole batch (a strictly longer
// operation, which every scheme already supports: park_in_operation holds
// a bare bracket for an unbounded sleep).
//
// Mechanism: IKV::batch_begin() opens the domain bracket(s) and bumps the
// calling thread's batch depth; while the depth is non-zero, OpGuard
// skips its begin_op/end_op pair because the batch's bracket is already
// open. NBR is excluded (OpGuard never skips for kNeutralizes schemes):
// its neutralization longjmp targets the checkpoint armed by the current
// operation's stack frame, so the read-phase flag must be cleared by each
// op's own end_op — a skipped end_op would leave a live checkpoint
// pointing into a dead frame.
//
// Contract: between batch_begin and the matching batch_end the calling
// thread must operate only on the map whose bracket it opened (the depth
// is thread-global, not per-domain — an op on an unbracketed map would
// silently skip its guard). The bracket must never be held across a
// blocking wait (the server brackets the drain of already-buffered bytes,
// never the epoll_wait).
namespace detail {
inline thread_local uint32_t tl_batch_depth = 0;
}  // namespace detail

inline void batch_scope_enter() { ++detail::tl_batch_depth; }
inline void batch_scope_exit() { --detail::tl_batch_depth; }
inline bool in_batch_scope() { return detail::tl_batch_depth != 0; }

// RAII operation bracket used by the data structures:
//   typename Smr::Guard g(smr);
template <class Domain>
class OpGuard {
 public:
  // smr-lint: allow(R3) — OpGuard IS the begin_op/end_op bracket.
  explicit OpGuard(Domain& d)
      : d_(d), skip_(!Domain::kNeutralizes && in_batch_scope()) {
    // Audit bracket depth: a skipped guard is still inside the batch
    // bracket (which did its own audit::bracket_enter), so only count the
    // brackets this guard actually opens.
    if (!skip_) {
      d_.begin_op();
      audit::bracket_enter();
    }
  }
  // end_op first: until it runs, NBR's read phase is still armed, and a
  // neutralization landing after bracket_exit would re-run the body from
  // its checkpoint outside the audit bracket.
  ~OpGuard() {  // smr-lint: allow(R3) — closes the bracket the ctor opened
    if (!skip_) {
      d_.end_op();
      audit::bracket_exit();
    }
  }
  OpGuard(const OpGuard&) = delete;
  OpGuard& operator=(const OpGuard&) = delete;

 private:
  Domain& d_;
  const bool skip_;
};

// ---- scheme base -----------------------------------------------------------
//
// CRTP base of every scheme (`class X : public DomainBase<X>`; README
// "Adding a scheme" lists what X writes). X's neutralize(tid) drops tid's
// reservations; detach, the takeover of a tid whose owner died without
// detaching, and the zombie reaper all call it. The protected defaults
// below are optional hooks X may redeclare (privately, with `friend
// DomainBase;`).
template <class Scheme>
class DomainBase {
 public:
  static constexpr bool kNeutralizes = false;  // NBR overrides
  using Guard = OpGuard<Scheme>;
  // The header the scheme's sweeps read (reclaimable.hpp): a data
  // structure derives its nodes from Smr::NodeHeader. Era schemes (HE,
  // IBR, HazardEraPOP) override it with EraReclaimable.
  using NodeHeader = Reclaimable;

  explicit DomainBase(const SmrConfig& cfg = {}) : core_(cfg, Scheme::kName) {}

  // A fresh ownership of this thread's slot starts from neutralized state.
  void attach() {
    const int tid = runtime::my_tid();
    if (core_.attach_if_new(tid)) {
      self().neutralize(tid);
      self().on_attach(tid);
    }
  }
  void detach() {
    const int tid = runtime::my_tid();
    self().neutralize(tid);
    self().on_detach(tid);
    core_.mark_detached(tid);
  }

  template <ManagedNode T, class... Args>
  T* create(Args&&... args) {
    return create<T>(TailBytes{0}, std::forward<Args>(args)...);
  }
  // The same with `tail.bytes` of trailing storage in the node's block.
  template <ManagedNode T, class... Args>
  T* create(TailBytes tail, Args&&... args) {
    static_assert(std::is_base_of_v<typename Scheme::NodeHeader, T>,
                  "derive the node from Smr::NodeHeader: an era "
                  "scheme's sweeps read the lifespan it holds");
    return core_.create_node<T>(self().birth_era(), tail.bytes,
                                std::forward<Args>(args)...);
  }

  // NBR's write phase; nothing to do for a scheme that never neutralizes.
  void enter_write_phase(std::initializer_list<const Reclaimable*> = {}) {}
  void exit_write_phase() {}

  StatsSnapshot stats() const { return core_.stats_snapshot(); }
  const SmrConfig& config() const { return core_.config(); }
  // Threads this domain has allocated per-thread state for.
  int thread_rows() const { return core_.thread_rows(); }

 protected:
  void on_attach(int /*tid*/) {}
  void on_detach(int /*tid*/) {}
  uint64_t birth_era() { return 0; }

  // Certifies dead owners and neutralizes them (DomainCore::reap_dead);
  // reclamation passes call it before reading the reservations.
  void reap(int tid) {
    core_.reap_dead(tid, [this](int t) { self().neutralize(t); });
  }

  DomainCore core_;

 private:
  Scheme& self() { return static_cast<Scheme&>(*this); }
};

}  // namespace pop::smr
