// SMR contract sanitizer: opt-in shadow-state checking of the reclamation
// contracts that are otherwise enforced only by comments and review.
//
// Four contracts, four violation kinds:
//   double_retire        the same Reclaimable entered a domain's retire
//                        path twice without an intervening free — the
//                        classic source of double-free corruption under
//                        every scheme (Brown, arxiv 1712.01044).
//   retire_outside_op    retire() ran on a thread holding no operation
//                        bracket (OpGuard or batch bracket). Unbracketed
//                        retires are legal for *this* thread's memory
//                        safety but mean the retiring op itself traversed
//                        the structure unprotected.
//   unbalanced_bracket   a thread detached from a domain with a non-zero
//                        bracket depth — a leaked begin_op, which pins the
//                        entry-time reservation forever (the stall-recovery
//                        failure mode, but silent and permanent).
//   free_never_retired   a reclamation sweep freed a block the shadow set
//                        never saw retired — something pushed onto a
//                        RetireList bypassing the domain's retire path.
//
// Mechanism: every DomainCore owns a DomainShadow (a mutex-guarded set of
// in-flight retired pointers, per *domain* — pointers move between
// per-thread retire lists via the reaper's adopt, but never between
// domains); OpGuard / the batch bracket / park maintain a thread-local
// bracket depth. Hooks fire from the shared base (DomainCore::retire,
// sweep_retired, mark_detached), so all eleven schemes are covered without
// per-scheme code.
//
// Gating mirrors src/obs: off by default, one relaxed load + a predictable
// branch per hook when off (tests/smr/test_audit.cpp pins the disabled
// path under the same <2% bound as the obs layer). Enable with
// POPSMR_AUDIT=1 or programmatically with set_enabled(). On violation the
// report names kind/scheme/tid/pointer on stderr, then aborts
// (POPSMR_AUDIT_MODE=abort, the default — tests want a corpse, not a
// corrupted run) or counts and warns once per kind
// (POPSMR_AUDIT_MODE=warn — benches want the row, not the corpse).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>

namespace pop::smr::audit {

enum class Violation : int {
  kDoubleRetire = 0,
  kRetireOutsideOp,
  kUnbalancedBracket,
  kFreeNeverRetired,
  kCount,
};
inline constexpr int kViolationCount = static_cast<int>(Violation::kCount);

const char* violation_name(Violation v);

namespace detail {
// 0 = uninitialized (consult POPSMR_AUDIT on first query), 1 = off, 2 = on.
extern std::atomic<int> g_state;
int init_slow();
// Thread-local operation-bracket depth (across domains: the batch bracket
// is thread-global too, and a thread inside *any* bracket is protected).
extern thread_local uint32_t tl_bracket_depth;
void report(Violation v, const char* scheme, int tid, const void* ptr);
}  // namespace detail

// One relaxed load + branch once initialized — the only cost every
// retire/sweep/detach pays when auditing is off.
inline bool on() {
  int s = detail::g_state.load(std::memory_order_relaxed);
  if (s == 0) s = detail::init_slow();
  return s == 2;
}

// Programmatic switches (tests; the env knobs cover deployments).
// Quiescent-only: flipping mid-operation desynchronizes bracket depths.
void set_enabled(bool enabled);
void set_abort_on_violation(bool abort_on_violation);
bool abort_on_violation();

// Violation counters (process-wide, relaxed — exact at quiescence).
uint64_t violations();
uint64_t violations(Violation v);
void reset();  // quiescent-only (tests)

// ---- bracket tracking ------------------------------------------------------

inline void bracket_enter() {
  if (on()) ++detail::tl_bracket_depth;
}

inline void bracket_exit() {
  // The depth guard makes a mid-bracket enable (enter unseen, exit seen)
  // degrade to a missed check instead of an underflowed counter.
  if (on() && detail::tl_bracket_depth > 0) --detail::tl_bracket_depth;
}

inline uint32_t bracket_depth() {
  return detail::tl_bracket_depth;
}

// Called by DomainCore::mark_detached on the detaching thread itself: a
// non-zero depth here is a leaked begin_op. The depth resets after
// reporting so one leak does not re-report on every later detach.
void check_detach(const char* scheme, int tid);

// ---- per-domain shadow state -----------------------------------------------

// The set of pointers retired to this domain and not yet freed. Guarded by
// a mutex: auditing is a debugging build, contention here is acceptable
// and keeps the checker trivially correct.
class DomainShadow {
 public:
  // Checks retire-in-bracket and double-retire, then records `p` in
  // flight. Call before the pointer enters any retire list.
  void on_retire(const char* scheme, int tid, const void* p);
  // Records the free of `p`; reports free_never_retired if it was not in
  // flight. Call for every node a reclamation sweep frees.
  void on_free(const char* scheme, int tid, const void* p);
  // Domain teardown: everything still in flight is about to be drained
  // (legitimately — the owning structure is gone), so just forget it.
  void clear();

 private:
  std::mutex mu_;
  std::unordered_set<const void*> set_;
};

}  // namespace pop::smr::audit
