#include "runtime/signal_bus.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "runtime/thread_registry.hpp"
#include "../support/test_util.hpp"

namespace pop::runtime {
namespace {

class CountingClient final : public SignalClient {
 public:
  void on_ping(int tid) noexcept override {
    pings.fetch_add(1, std::memory_order_relaxed);
    last_tid.store(tid, std::memory_order_relaxed);
  }
  std::atomic<uint64_t> pings{0};
  std::atomic<int> last_tid{-1};
};

TEST(SignalBus, AttachDetachIsPerThread) {
  CountingClient c;
  auto& bus = SignalBus::instance();
  bus.attach(&c);
  EXPECT_TRUE(bus.attached(&c));
  bus.attach(&c);  // idempotent
  EXPECT_TRUE(bus.attached(&c));
  bus.detach(&c);
  EXPECT_FALSE(bus.attached(&c));
  bus.detach(&c);  // idempotent
}

TEST(SignalBus, AttachmentInOneThreadNotVisibleInAnother) {
  CountingClient c;
  SignalBus::instance().attach(&c);
  test::run_threads(1, [&](int) {
    EXPECT_FALSE(SignalBus::instance().attached(&c));
  });
  SignalBus::instance().detach(&c);
}

TEST(SignalBus, PingRunsHandlerOnTargetThread) {
  CountingClient c;
  std::atomic<bool> hold{true};
  std::atomic<int> worker_tid{-1};
  std::thread t([&] {
    SignalBus::instance().attach(&c);
    worker_tid.store(my_tid());
    while (hold.load()) std::this_thread::yield();
    SignalBus::instance().detach(&c);
  });
  while (worker_tid.load() < 0) std::this_thread::yield();
  ThreadRegistry::instance().ping_others(kPingSignal, [](int) { return true; });
  // The signal is asynchronous; wait for the handler.
  for (int i = 0; i < 10000 && c.pings.load() == 0; ++i) {
    std::this_thread::yield();
  }
  EXPECT_GE(c.pings.load(), 1u);
  EXPECT_EQ(c.last_tid.load(), worker_tid.load());
  hold.store(false);
  t.join();
}

TEST(SignalBus, MultipleClientsAllNotified) {
  CountingClient c1, c2;
  std::atomic<bool> hold{true};
  std::atomic<bool> ready{false};
  std::thread t([&] {
    SignalBus::instance().attach(&c1);
    SignalBus::instance().attach(&c2);
    ready.store(true);
    while (hold.load()) std::this_thread::yield();
    SignalBus::instance().detach(&c1);
    SignalBus::instance().detach(&c2);
  });
  while (!ready.load()) std::this_thread::yield();
  ThreadRegistry::instance().ping_others(kPingSignal, [](int) { return true; });
  for (int i = 0; i < 10000 && (c1.pings.load() == 0 || c2.pings.load() == 0);
       ++i) {
    std::this_thread::yield();
  }
  EXPECT_GE(c1.pings.load(), 1u);
  EXPECT_GE(c2.pings.load(), 1u);
  hold.store(false);
  t.join();
}

TEST(SignalBus, DetachedClientNotNotified) {
  CountingClient c;
  std::atomic<bool> hold{true};
  std::atomic<bool> ready{false};
  std::thread t([&] {
    SignalBus::instance().attach(&c);
    SignalBus::instance().detach(&c);
    ready.store(true);
    while (hold.load()) std::this_thread::yield();
  });
  while (!ready.load()) std::this_thread::yield();
  ThreadRegistry::instance().ping_others(kPingSignal, [](int) { return true; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(c.pings.load(), 0u);
  hold.store(false);
  t.join();
}

// A client that records deliveries landing while it was not supposed to
// be reachable. on_ping runs in signal-handler context: atomics only.
class ArmedClient final : public SignalClient {
 public:
  void on_ping(int) noexcept override {
    if (!armed.load(std::memory_order_relaxed)) {
      violations.fetch_add(1, std::memory_order_relaxed);
    }
    pings.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<bool> armed{false};
  std::atomic<uint64_t> pings{0};
  std::atomic<uint64_t> violations{0};
};

// Regression for the delivery/detach race: a ping that interrupts (or is
// pending across) detach() must never run the detaching client after
// detach returned. The worker flips `armed` off immediately after each
// detach and re-attaches in a tight loop while this thread storms pings
// at it — any delivery observed with armed == false means the handler
// walked a slot detach() had already logically removed.
TEST(SignalBus, DetachClosesInFlightDeliveryWindow) {
  ArmedClient c;
  std::atomic<bool> stop{false};
  std::atomic<bool> ready{false};
  std::thread worker([&] {
    (void)my_tid();
    auto& bus = SignalBus::instance();
    ready.store(true);
    while (!stop.load(std::memory_order_acquire)) {
      c.armed.store(true, std::memory_order_relaxed);
      bus.attach(&c);
      for (int i = 0; i < 32; ++i) std::this_thread::yield();
      bus.detach(&c);
      // From here until the next attach, a delivery through `c` is the
      // bug this test exists for (same-thread program order: the handler
      // cannot observe armed == false before detach() returned).
      c.armed.store(false, std::memory_order_relaxed);
      for (int i = 0; i < 32; ++i) std::this_thread::yield();
    }
  });
  while (!ready.load()) std::this_thread::yield();
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  while (std::chrono::steady_clock::now() < until) {
    ThreadRegistry::instance().ping_others(kPingSignal,
                                           [](int) { return true; });
  }
  stop.store(true, std::memory_order_release);
  worker.join();
  EXPECT_EQ(c.violations.load(), 0u)
      << "a ping ran the client after detach() returned";
  EXPECT_GT(c.pings.load(), 0u) << "the storm never landed; test is vacuous";
}

// Same race, lifetime edition: after detach() returns the client object
// may be destroyed immediately. A handler holding a stale slot pointer
// turns the next ping into a use-after-free — the storm plus a fresh
// heap client per cycle makes ASan the referee.
TEST(SignalBus, DetachedClientCanBeDestroyedImmediately) {
  std::atomic<bool> stop{false};
  std::atomic<bool> ready{false};
  std::atomic<uint64_t> cycles{0};
  std::thread worker([&] {
    (void)my_tid();
    auto& bus = SignalBus::instance();
    ready.store(true);
    while (!stop.load(std::memory_order_acquire)) {
      auto* c = new CountingClient;
      bus.attach(c);
      std::this_thread::yield();
      bus.detach(c);
      delete c;  // any later delivery through this slot is a UAF
      cycles.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (!ready.load()) std::this_thread::yield();
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  while (std::chrono::steady_clock::now() < until) {
    ThreadRegistry::instance().ping_others(kPingSignal,
                                           [](int) { return true; });
  }
  stop.store(true, std::memory_order_release);
  worker.join();
  EXPECT_GT(cycles.load(), 0u);
}

}  // namespace
}  // namespace pop::runtime
