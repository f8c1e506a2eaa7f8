#include "runtime/asym_fence.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "runtime/fault_inject.hpp"
#include "runtime/signal_bus.hpp"
#include "runtime/thread_registry.hpp"
#include "../support/test_util.hpp"

namespace pop::runtime {
namespace {

TEST(AsymFence, BackendIsProbedOnce) {
  auto& f = AsymFence::instance();
  const AsymBackend b1 = f.backend();
  const AsymBackend b2 = AsymFence::instance().backend();
  EXPECT_EQ(static_cast<int>(b1), static_cast<int>(b2));
}

TEST(AsymFence, LightFenceIsCallable) {
  AsymFence::light_fence();  // compiler barrier only; must not crash
  SUCCEED();
}

// Each fence test runs twice: through whichever backend was probed, and
// through the signal-broadcast fallback whatever the probe found.
struct Fence {
  const char* name;
  bool (*run)();
};
const Fence kFences[] = {
    {"heavy_fence", [] { return AsymFence::instance().heavy_fence(); }},
    {"signal_broadcast_fence", [] { return detail::signal_broadcast_fence(); }},
};

TEST(AsymFence, HeavyFenceCompletesWithNoOtherThreads) {
  for (const Fence& f : kFences) {
    SCOPED_TRACE(f.name);
    EXPECT_TRUE(f.run());
  }
}

TEST(AsymFence, HeavyFenceCompletesWithBusyThreads) {
  for (const Fence& f : kFences) {
    SCOPED_TRACE(f.name);
    std::atomic<bool> stop{false};
    std::atomic<int> up{0};
    std::vector<std::thread> ts;
    for (int i = 0; i < 4; ++i) {
      ts.emplace_back([&] {
        (void)my_tid();
        detail::attach_barrier_client_for_current_thread();
        up.fetch_add(1);
        volatile uint64_t sink = 0;
        while (!stop.load(std::memory_order_relaxed)) sink = sink + 1;
      });
    }
    while (up.load() < 4) std::this_thread::yield();
    for (int i = 0; i < 16; ++i) EXPECT_TRUE(f.run());
    stop.store(true);
    for (auto& t : ts) t.join();
  }
}

// Message-passing smoke test: store, heavy fence, then every reader that
// subsequently acknowledges must see the store.
TEST(AsymFence, StoreVisibleAfterHeavyFence) {
  for (const Fence& f : kFences) {
    SCOPED_TRACE(f.name);
    std::atomic<int> data{0};
    std::atomic<int> seen{-1};
    std::atomic<bool> go{false};
    std::atomic<bool> enrolled{false};
    std::thread reader([&] {
      (void)my_tid();
      detail::attach_barrier_client_for_current_thread();
      enrolled.store(true);
      while (!go.load(std::memory_order_relaxed)) std::this_thread::yield();
      seen.store(data.load(std::memory_order_relaxed));
    });
    while (!enrolled.load()) std::this_thread::yield();
    data.store(42, std::memory_order_relaxed);
    EXPECT_TRUE(f.run());
    go.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(seen.load(), 42);
  }
}

// The fallback under signal loss: a live enrolled thread whose pings are
// all dropped makes the fence return incomplete at the watchdog deadline
// instead of hanging; once delivery is restored it completes again.
TEST(AsymFence, SignalFenceReportsIncompleteUnderSignalLoss) {
  setenv("POPSMR_PING_TIMEOUT_MS", "20", /*overwrite=*/1);
  auto& faults = FaultInjection::instance();
  std::atomic<int> victim{-1};
  std::atomic<bool> release{false};
  std::thread parked([&] {
    detail::attach_barrier_client_for_current_thread();
    victim.store(my_tid());
    while (!release.load()) std::this_thread::yield();
  });
  while (victim.load() < 0) std::this_thread::yield();
  faults.arm_signal_loss(100, victim.load());
  const uint64_t dropped_before = faults.dropped();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(detail::signal_broadcast_fence());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(
                std::chrono::steady_clock::now() - t0)
                .count(),
            10);
  EXPECT_GT(faults.dropped(), dropped_before);
  faults.disarm();
  EXPECT_TRUE(detail::signal_broadcast_fence());
  release.store(true);
  parked.join();
  unsetenv("POPSMR_PING_TIMEOUT_MS");
}

// An enrollment ends with the thread that made it: a thread that takes
// over the tid without enrolling has no barrier client to acknowledge a
// ping, so the fence must not wait for it.
TEST(AsymFence, EnrollmentEndsWithItsThread) {
  int enrolled_tid = -1;
  std::thread([&] {
    detail::attach_barrier_client_for_current_thread();
    enrolled_tid = my_tid();
  }).join();
  std::atomic<int> heir{-1};
  std::atomic<bool> release{false};
  std::thread successor([&] {
    heir.store(my_tid());
    while (!release.load()) std::this_thread::yield();
  });
  while (heir.load() < 0) std::this_thread::yield();
  // With the default 1-s watchdog, a fence that waited for the heir would
  // return incomplete.
  EXPECT_TRUE(detail::signal_broadcast_fence());
  release.store(true);
  successor.join();
  EXPECT_EQ(heir.load(), enrolled_tid) << "the tid was not recycled";
}

}  // namespace
}  // namespace pop::runtime
