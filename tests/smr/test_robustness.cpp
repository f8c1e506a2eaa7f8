// The paper's robustness story, as executable tests:
//  * EBR is NOT robust: one stalled reader stops reclamation entirely
//    (unbounded garbage — §2.2.2).
//  * EpochPOP IS robust: the same stall leaves garbage bounded (§4.2.3,
//    Property 5) because reclaimers fall back to publish-on-ping.
//  * HazardPtrPOP/HazardEraPOP bound garbage like HP/HE (Property 3/7).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "runtime/fault_inject.hpp"
#include "runtime/thread_registry.hpp"
#include "smr/all.hpp"
#include "../support/test_util.hpp"

namespace pop {
namespace {

using test::TNode;

constexpr int kChurn = 600;

smr::SmrConfig cfg() {
  smr::SmrConfig c;
  c.retire_threshold = 16;
  c.epoch_freq = 1;
  c.pop_multiplier = 2;
  return c;
}

// Parks a thread inside an operation of `d`, then churns retires from the
// main thread; returns the final unreclaimed count.
template <class D>
uint64_t churn_with_stalled_reader(D& d) {
  std::atomic<bool> stalled{false}, release{false};
  std::thread sleeper([&] {
    d.begin_op();
    stalled.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!stalled.load()) std::this_thread::yield();
  for (int i = 0; i < kChurn; ++i) {
    typename D::Guard g(d);
    d.retire(d.template create<TNode>(i));
  }
  const uint64_t unreclaimed = d.stats().unreclaimed();
  release.store(true);
  sleeper.join();
  return unreclaimed;
}

TEST(Robustness, EbrGarbageGrowsUnboundedUnderStall) {
  smr::EbrDomain d(cfg());
  const uint64_t unreclaimed = churn_with_stalled_reader(d);
  // Everything retired after the stall is pinned: growth is linear in the
  // churn — the non-robustness the paper motivates EpochPOP with.
  EXPECT_GE(unreclaimed, static_cast<uint64_t>(kChurn) * 9 / 10);
}

TEST(Robustness, EpochPopGarbageStaysBoundedUnderStall) {
  core::EpochPopDomain d(cfg());
  const uint64_t unreclaimed = churn_with_stalled_reader(d);
  const auto c = cfg();
  // Property 5: bounded by the POP trigger plus reserved slots.
  EXPECT_LE(unreclaimed, c.pop_multiplier * c.retire_threshold +
                             2 * static_cast<uint64_t>(c.num_slots));
  EXPECT_GT(d.stats().pop_frees, 0u);
}

TEST(Robustness, HazardPtrPopGarbageStaysBoundedUnderStall) {
  core::HazardPtrPopDomain d(cfg());
  const uint64_t unreclaimed = churn_with_stalled_reader(d);
  const auto c = cfg();
  EXPECT_LE(unreclaimed,
            c.retire_threshold + 2 * static_cast<uint64_t>(c.num_slots));
}

TEST(Robustness, HazardEraPopGarbageStaysBoundedUnderStall) {
  core::HazardEraPopDomain d(cfg());
  const uint64_t unreclaimed = churn_with_stalled_reader(d);
  // A stalled thread with no reservation pins nothing (eras cleared at
  // op start happen to be empty here since begin_op reserves lazily).
  const auto c = cfg();
  EXPECT_LE(unreclaimed,
            c.retire_threshold + 2 * static_cast<uint64_t>(c.num_slots));
}

TEST(Robustness, HpGarbageStaysBoundedUnderStall) {
  smr::HpDomain d(cfg());
  const uint64_t unreclaimed = churn_with_stalled_reader(d);
  const auto c = cfg();
  EXPECT_LE(unreclaimed,
            c.retire_threshold + 2 * static_cast<uint64_t>(c.num_slots));
}

TEST(Robustness, IbrGarbageStaysBoundedUnderStall) {
  smr::IbrDomain d(cfg());
  const uint64_t unreclaimed = churn_with_stalled_reader(d);
  // The stalled reader's interval [e,e] pins only nodes alive at e.
  EXPECT_LE(unreclaimed, cfg().retire_threshold * 4);
}

TEST(Robustness, EpochPopDegradesGracefullyUnderSignalLoss) {
  // The watchdog's reason to exist: a parked reader whose pings are all
  // dropped. The POP fallback's wave genuinely cannot complete, so every
  // retire must still RETURN (waves time out and defer — memory degrades,
  // liveness never does), and once delivery is restored and the victim
  // departs, reclamation must pull unreclaimed back under the robust
  // stall bound.
  setenv("POPSMR_PING_TIMEOUT_MS", "20", /*overwrite=*/1);
  auto& faults = runtime::FaultInjection::instance();
  const uint64_t dropped_before = faults.dropped();
  {
    core::EpochPopDomain d(cfg());
    std::atomic<bool> stalled{false}, release{false};
    std::atomic<int> victim_tid{-1};
    std::thread sleeper([&] {
      d.begin_op();
      victim_tid.store(runtime::my_tid());
      stalled.store(true);
      while (!release.load()) std::this_thread::yield();
      d.end_op();
      d.detach();
    });
    while (!stalled.load()) std::this_thread::yield();
    faults.arm_signal_loss(100, victim_tid.load());

    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kChurn; ++i) {
      core::EpochPopDomain::Guard g(d);
      d.retire(d.create<TNode>(i));
    }
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    // Liveness under total signal loss: the churn loop finished, and it
    // finished because waves timed out rather than by luck.
    EXPECT_LT(
        std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 60);
    EXPECT_GT(d.stats().waves_timed_out, 0u)
        << "no wave ever hit the watchdog; the fault was not exercised";
    // A timed-out wave frees nothing, so the list stays past the trigger;
    // the next escalation must still wait retire_threshold retires, not
    // fire again on every retire (one deadline each).
    EXPECT_LE(d.stats().waves_timed_out,
              static_cast<uint64_t>(kChurn) / cfg().retire_threshold + 1);
    EXPECT_GT(faults.dropped(), dropped_before);

    faults.disarm();
    release.store(true);
    sleeper.join();
    // Delivery restored and the victim gone: the next passes must drain
    // the deferred backlog back under the robust bound.
    for (int i = 0; i < kChurn; ++i) {
      core::EpochPopDomain::Guard g(d);
      d.retire(d.create<TNode>(1000 + i));
    }
    const auto c = cfg();
    EXPECT_LE(d.stats().unreclaimed(),
              c.pop_multiplier * c.retire_threshold +
                  2 * static_cast<uint64_t>(c.num_slots))
        << "unreclaimed never recovered after the loss window closed";
    d.detach();
  }
  faults.disarm();
  unsetenv("POPSMR_PING_TIMEOUT_MS");
}

TEST(Robustness, NbrDegradesGracefullyUnderSignalLoss) {
  // NBR's ack round under the same fault: a parked victim that never
  // acknowledges must time the wave out (and defer its sweep), not hang
  // every reclaimer until the victim departs.
  setenv("POPSMR_PING_TIMEOUT_MS", "20", /*overwrite=*/1);
  auto& faults = runtime::FaultInjection::instance();
  const uint64_t dropped_before = faults.dropped();
  {
    smr::NbrDomain d(cfg());
    std::atomic<bool> stalled{false}, release{false};
    std::atomic<int> victim_tid{-1};
    std::thread sleeper([&] {
      d.begin_op();
      victim_tid.store(runtime::my_tid());
      stalled.store(true);
      while (!release.load()) std::this_thread::yield();
      d.end_op();
      d.detach();
    });
    while (!stalled.load()) std::this_thread::yield();
    faults.arm_signal_loss(100, victim_tid.load());

    // A reclaimer with no watchdog waits on the mute victim until it
    // detaches: release it at a deadline, so such a hang fails this test
    // instead of running into the suite's timeout.
    std::atomic<bool> churned{false}, deadline_hit{false};
    std::thread deadline([&] {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!churned.load() && std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (!churned.load()) {
        deadline_hit.store(true);
        release.store(true);
      }
    });
    for (int i = 0; i < kChurn; ++i) {
      smr::NbrDomain::Guard g(d);
      d.retire(d.create<TNode>(i));
    }
    churned.store(true);
    deadline.join();
    EXPECT_FALSE(deadline_hit.load())
        << "the churn hung on the mute victim until it was released";
    EXPECT_GT(d.stats().waves_timed_out, 0u)
        << "no wave ever hit the watchdog; the fault was not exercised";
    // A timed-out wave frees nothing, so the list stays past the trigger;
    // the next escalation must still wait retire_threshold retires, not
    // fire again on every retire (one deadline each).
    EXPECT_LE(d.stats().waves_timed_out,
              static_cast<uint64_t>(kChurn) / cfg().retire_threshold + 1);
    EXPECT_GT(faults.dropped(), dropped_before);

    faults.disarm();
    release.store(true);
    sleeper.join();
    for (int i = 0; i < kChurn; ++i) {
      smr::NbrDomain::Guard g(d);
      d.retire(d.create<TNode>(1000 + i));
    }
    const auto c = cfg();
    EXPECT_LE(d.stats().unreclaimed(),
              c.retire_threshold + 2 * static_cast<uint64_t>(c.num_slots))
        << "unreclaimed never recovered after the loss window closed";
    d.detach();
  }
  faults.disarm();
  unsetenv("POPSMR_PING_TIMEOUT_MS");
}

TEST(Robustness, StalledThreadDoesNotBlockPopForever) {
  // Liveness: a reclaim pass with a stalled (but signal-responsive)
  // thread completes — Assumption 1 in practice.
  core::HazardPtrPopDomain d(cfg());
  std::atomic<bool> stalled{false}, release{false};
  std::thread sleeper([&] {
    d.begin_op();
    stalled.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!stalled.load()) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 64; ++i) {
    core::HazardPtrPopDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  EXPECT_GT(d.stats().freed, 0u);
  release.store(true);
  sleeper.join();
}

}  // namespace
}  // namespace pop
