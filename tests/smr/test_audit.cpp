// The SMR contract sanitizer (smr/audit.hpp), exercised both ways:
// seeded violations must trip the right detector, and clean runs across
// every scheme must stay silent. The disabled-path hook cost is bounded
// with the same min-of-rounds methodology as tests/obs/test_obs_overhead.
//
// Seeding notes:
//  - double retire is seeded under ABORT mode via death tests: the audit
//    fires inside DomainCore::retire BEFORE the node is pushed, so the
//    child process dies before the intrusive retire list can self-link. Warn
//    mode would let the corrupting push proceed — deliberately not
//    tested that way.
//  - retire-outside-bracket and unbalanced-bracket are benign to the
//    heap, so warn mode + counters cover them (and keep this process
//    alive across schemes).
//  - the bracket-leak seed runs in its own std::thread so the leaked
//    thread-local batch scope dies with the thread instead of making
//    later tests skip their OpGuards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>

#include "ds/iset.hpp"
#include "smr/all.hpp"
#include "../support/test_util.hpp"

namespace pop::smr {
namespace {

using test::TNode;

SmrConfig tiny() {
  SmrConfig c;
  c.retire_threshold = 2;
  c.epoch_freq = 1;
  return c;
}

// Warn mode so the process survives the seeded violation and the test
// can read the counters. Callers pair with audit_off().
void audit_warn_mode() {
  audit::set_enabled(true);
  audit::set_abort_on_violation(false);
  audit::reset();
}

void audit_off() {
  audit::set_enabled(false);
  audit::reset();
}

template <class D>
void seed_double_retire() {
  audit::set_enabled(true);
  audit::set_abort_on_violation(true);
  D d(tiny());
  TNode* n = d.template create<TNode>(7);
  typename D::Guard g(d);
  d.retire(n);
  d.retire(n);  // aborts here, before the retire list can self-link
}

TEST(AuditSeededDeath, DoubleRetireAbortsWithSchemeTag) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(seed_double_retire<EbrDomain>(), "double_retire.*EBR");
  EXPECT_DEATH(seed_double_retire<core::EpochPopDomain>(),
               "double_retire.*EpochPOP");
  EXPECT_DEATH(seed_double_retire<HpDomain>(), "double_retire.*HP");
}

template <class D>
void seed_retire_outside_bracket() {
  D d(tiny());
  d.attach();
  TNode* n = d.template create<TNode>(1);
  d.retire(n);  // no OpGuard, no batch bracket: contract violation
  d.detach();
}

TEST(AuditSeeded, RetireOutsideBracketCountsPerScheme) {
  audit_warn_mode();
  seed_retire_outside_bracket<EbrDomain>();
  EXPECT_EQ(audit::violations(audit::Violation::kRetireOutsideOp), 1u);
  seed_retire_outside_bracket<core::EpochPopDomain>();
  EXPECT_EQ(audit::violations(audit::Violation::kRetireOutsideOp), 2u);
  seed_retire_outside_bracket<HpDomain>();
  EXPECT_EQ(audit::violations(audit::Violation::kRetireOutsideOp), 3u);
  EXPECT_EQ(audit::violations(audit::Violation::kDoubleRetire), 0u);
  audit_off();
}

// A batch bracket opened and never closed must be caught when the thread
// detaches. Runs through the public IKV surface (batch_begin with no
// batch_end), in a throwaway thread so the leaked thread-local batch
// scope cannot leak into later tests on this thread.
void seed_unbalanced_batch(const std::string& smr_name) {
  ds::SetConfig cfg;
  cfg.capacity = 64;
  auto m = ds::make_kv("HML", smr_name, cfg);
  ASSERT_NE(m, nullptr) << smr_name;
  std::thread t([&] {
    m->batch_begin();
    m->put(1, 10);
    m->detach_thread();  // bracket still open: unbalanced_bracket fires
  });
  t.join();
}

TEST(AuditSeeded, UnbalancedBatchBracketAtDetach) {
  audit_warn_mode();
  uint64_t expected = 0;
  for (const char* smr_name : {"EBR", "EpochPOP", "HP"}) {
    seed_unbalanced_batch(smr_name);
    ++expected;
    EXPECT_EQ(audit::violations(audit::Violation::kUnbalancedBracket),
              expected)
        << smr_name;
  }
  EXPECT_EQ(audit::violations(), expected) << "only unbalanced_bracket";
  audit_off();
}

// With the auditor armed, a well-behaved workload over every scheme and
// both bracket styles (per-op OpGuards and a pipelined batch) must stay
// completely silent.
TEST(AuditClean, AllSchemesSilentUnderAudit) {
  audit_warn_mode();
  for (const auto& smr_name : ds::all_smr_names()) {
    ds::SetConfig cfg;
    cfg.capacity = 128;
    auto m = ds::make_kv("HML", smr_name, cfg);
    ASSERT_NE(m, nullptr) << smr_name;
    for (uint64_t k = 0; k < 64; ++k) m->put(k, k * 10);
    m->batch_begin();
    for (uint64_t k = 0; k < 64; ++k) {
      uint64_t v = 0;
      EXPECT_TRUE(m->get(k, &v)) << smr_name;
      m->put(k, v + 1);
    }
    m->batch_end();
    for (uint64_t k = 0; k < 64; ++k) m->remove(k);
    m->detach_thread();
    EXPECT_EQ(audit::violations(), 0u) << smr_name;
  }
  EXPECT_EQ(audit::bracket_depth(), 0u);
  audit_off();
}

// ---- disabled-path overhead ------------------------------------------------
// Same min-of-rounds methodology and thresholds as test_obs_overhead: the
// minimum over many rounds converges to the intrinsic cost, so the ratio
// of minima bounds the hook overhead without scheduler-noise flakiness.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr double kDefaultMaxPct = 75.0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr double kDefaultMaxPct = 75.0;
#else
constexpr double kDefaultMaxPct = 2.0;
#endif
#else
constexpr double kDefaultMaxPct = 2.0;
#endif

// ~100 ns of dependent integer work (chained splitmix rounds).
inline uint64_t synthetic_op(uint64_t x) {
  for (int i = 0; i < 48; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
  }
  return x;
}

inline void keep(uint64_t& v) { asm volatile("" : "+r"(v)); }

uint64_t time_loop_ns(int ops, bool hooked, uint64_t& state) {
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t x = state;
  for (int i = 0; i < ops; ++i) {
    x = synthetic_op(x);
    if (hooked) {
      // The gate DomainCore::retire/OpGuard compile against: one relaxed
      // load plus a predictable branch when the auditor is off.
      if (audit::on()) x += 1;
    }
    keep(x);
  }
  state = x;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

TEST(AuditOverhead, DisabledHookCostsUnderThreshold) {
  audit::set_enabled(false);
  ASSERT_FALSE(audit::on());

  double max_pct = kDefaultMaxPct;
  if (const char* env = std::getenv("POPSMR_TEST_OVERHEAD_PCT")) {
    const double v = std::strtod(env, nullptr);
    if (v > 0) max_pct = v;
  }

  const int kOps = 1 << 13;
  const int kRounds = 40;
  uint64_t state = 54321;

  time_loop_ns(kOps, false, state);  // warm both paths before measuring
  time_loop_ns(kOps, true, state);

  uint64_t min_plain = UINT64_MAX, min_hooked = UINT64_MAX;
  for (int r = 0; r < kRounds; ++r) {
    const uint64_t p = time_loop_ns(kOps, false, state);
    const uint64_t h = time_loop_ns(kOps, true, state);
    if (p < min_plain) min_plain = p;
    if (h < min_hooked) min_hooked = h;
  }
  ASSERT_GT(min_plain, 0u);

  const double overhead_pct =
      100.0 *
      (static_cast<double>(min_hooked) / static_cast<double>(min_plain) - 1.0);
  EXPECT_LE(overhead_pct, max_pct)
      << "disabled-path audit hook overhead " << overhead_pct
      << "% (plain min " << min_plain << " ns, hooked min " << min_hooked
      << " ns over " << kOps << " ops)";
}

}  // namespace
}  // namespace pop::smr
