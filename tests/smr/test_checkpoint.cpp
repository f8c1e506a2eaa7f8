// POPSMR_CHECKPOINT semantics: a no-op for non-neutralizing schemes, a
// sigsetjmp restart target for NBR. The interesting case is a signal
// landing mid read-phase: the handler must longjmp back to the *latest*
// checkpoint, the restarted pass must observe cleared reservations, and
// the checkpoint must re-arm so a second ping restarts the pass again.
#include "smr/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "smr/all.hpp"
#include "../support/test_util.hpp"

namespace pop::smr {
namespace {

using test::TNode;

SmrConfig tiny() {
  SmrConfig c;
  c.retire_threshold = 2;
  return c;
}

// Churn retires from the calling thread until the domain reports at least
// `target` neutralizations or the attempt budget runs out.
void churn_until_neutralized(NbrDomain& d, uint64_t target) {
  for (int i = 0; i < 2000 && d.stats().neutralized < target; ++i) {
    NbrDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
    if (i % 16 == 15) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

template <class Smr>
void run_checkpoint_as_noop() {
  Smr d(tiny());
  {
    typename Smr::Guard g(d);
    POPSMR_CHECKPOINT(d);  // must compile away: no jmp_env on these types
    d.retire(d.template create<TNode>(1));
  }
  d.detach();
}

TEST(Checkpoint, CompilesToNothingForNonNeutralizingSchemes) {
  run_checkpoint_as_noop<NrDomain>();
  run_checkpoint_as_noop<HpDomain>();
  run_checkpoint_as_noop<EbrDomain>();
  run_checkpoint_as_noop<core::HazardPtrPopDomain>();
  run_checkpoint_as_noop<core::EpochPopDomain>();
}

TEST(Checkpoint, SignalInterruptedReadPhaseRestartsFromCheckpoint) {
  NbrDomain d(tiny());
  std::atomic<int> passes{0};
  std::atomic<bool> parked{false};
  std::atomic<bool> escape{false};

  std::thread reader([&] {
    NbrDomain::Guard g(d);
    POPSMR_CHECKPOINT(d);
    // Every arrival here is one execution of the read phase: the first
    // pass plus one per neutralization longjmp.
    const int pass = passes.fetch_add(1) + 1;
    if (pass > 1) return;  // restarted: the checkpoint worked
    parked.store(true);
    while (!escape.load(std::memory_order_acquire)) {
    }
  });

  while (!parked.load()) std::this_thread::yield();
  churn_until_neutralized(d, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  escape.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GE(passes.load(), 2);
  EXPECT_GT(d.stats().neutralized, 0u);
  d.detach();
}

TEST(Checkpoint, RearmsAfterEveryRestart) {
  // Two consecutive neutralizations must both land on the same (re-armed)
  // checkpoint: the read phase re-executes once per ping it absorbs.
  NbrDomain d(tiny());
  std::atomic<int> passes{0};
  std::atomic<bool> escape{false};

  std::thread reader([&] {
    NbrDomain::Guard g(d);
    POPSMR_CHECKPOINT(d);
    passes.fetch_add(1);
    if (passes.load() > 2) return;  // survived two restarts
    while (!escape.load(std::memory_order_acquire)) {
    }
  });

  while (passes.load() < 1) std::this_thread::yield();
  churn_until_neutralized(d, 1);
  churn_until_neutralized(d, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  escape.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GE(passes.load(), 3);
  EXPECT_GE(d.stats().neutralized, 2u);
  d.detach();
}

TEST(Checkpoint, RestartedPassObservesClearedState) {
  // Locals recomputed after the checkpoint must be rebuilt from scratch on
  // restart (the documented contract), and on_restart must have dropped
  // any published reservations so the restarted traversal cannot rely on
  // them. We model "traversal progress" as a cursor the read phase
  // advances before parking: after the restart it must be re-derived from
  // the initial value, not the parked one.
  NbrDomain d(tiny());
  std::atomic<uint64_t> cursor{0};
  std::atomic<uint64_t> cursor_after_restart{0};
  std::atomic<bool> parked{false};
  std::atomic<bool> escape{false};
  std::atomic<bool> restarted{false};

  std::thread reader([&] {
    NbrDomain::Guard g(d);
    uint64_t local = 0;  // re-initialized on every pass through here
    POPSMR_CHECKPOINT(d);
    local = 1;  // first hop of the traversal
    if (restarted.exchange(true)) {
      // Second pass: the traversal restarted from its first hop.
      cursor_after_restart.store(local);
      return;
    }
    local = 42;  // deep in the traversal
    cursor.store(local);
    parked.store(true);
    while (!escape.load(std::memory_order_acquire)) {
    }
  });

  while (!parked.load()) std::this_thread::yield();
  EXPECT_EQ(cursor.load(), 42u);
  churn_until_neutralized(d, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  escape.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(d.stats().neutralized, 0u);
  EXPECT_EQ(cursor_after_restart.load(), 1u);
  d.detach();
}

TEST(Checkpoint, WritePhaseSuppressesRestartButStillAcks) {
  // A thread pinged inside its write phase must NOT come back through the
  // checkpoint — it acknowledges and keeps going — yet the reclaimer's
  // handshake still completes (reclaim() returns and frees).
  NbrDomain d(tiny());
  std::atomic<int> passes{0};
  std::atomic<bool> in_write{false};
  std::atomic<bool> release{false};

  std::thread writer([&] {
    NbrDomain::Guard g(d);
    POPSMR_CHECKPOINT(d);
    passes.fetch_add(1);
    d.enter_write_phase({});
    in_write.store(true);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    d.exit_write_phase();
  });

  while (!in_write.load()) std::this_thread::yield();
  for (int i = 0; i < 8; ++i) {
    NbrDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  EXPECT_GT(d.stats().freed, 0u);  // handshake completed without a restart
  release.store(true, std::memory_order_release);
  writer.join();

  EXPECT_EQ(passes.load(), 1);
  EXPECT_EQ(d.stats().neutralized, 0u);
  d.detach();
}

}  // namespace
}  // namespace pop::smr
