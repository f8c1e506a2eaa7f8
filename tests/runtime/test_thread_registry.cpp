#include "runtime/thread_registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "../support/test_util.hpp"

namespace pop::runtime {
namespace {

TEST(ThreadRegistry, MainThreadGetsStableTid) {
  const int a = my_tid();
  const int b = my_tid();
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 0);
  EXPECT_TRUE(ThreadRegistry::instance().alive(a));
}

TEST(ThreadRegistry, DistinctLiveThreadsGetDistinctTids) {
  const int main_tid = my_tid();  // register main before the workers
  std::mutex mu;
  std::set<int> tids;
  std::atomic<int> arrived{0};
  // Hold every worker alive until all 8 registered: ids must be distinct
  // only among *simultaneously live* threads (slots recycle on exit).
  test::run_threads(8, [&](int) {
    const int t = my_tid();
    {
      std::lock_guard<std::mutex> lk(mu);
      tids.insert(t);
    }
    arrived.fetch_add(1);
    while (arrived.load() < 8) std::this_thread::yield();
  });
  EXPECT_EQ(tids.size(), 8u);
  EXPECT_EQ(tids.count(main_tid), 0u);  // none equals the main thread's
}

TEST(ThreadRegistry, TidsAreRecycledAfterThreadExit) {
  std::set<int> first, second;
  std::mutex mu;
  // Each wave's four threads hold their tids at the same time; otherwise
  // a thread that exits early frees its slot for a later one in the same
  // wave, and the waves' tid sets depend on the scheduler.
  auto wave = [&](std::set<int>& out) {
    std::atomic<int> arrived{0};
    test::run_threads(4, [&](int) {
      const int tid = my_tid();
      arrived.fetch_add(1);
      while (arrived.load() < 4) std::this_thread::yield();
      std::lock_guard<std::mutex> lk(mu);
      out.insert(tid);
    });
  };
  wave(first);
  wave(second);
  EXPECT_EQ(first.size(), 4u);
  // All four slots freed by join, so the second wave reuses them.
  EXPECT_EQ(first, second);
}

TEST(ThreadRegistry, SlotEpochBumpsOnRecycle) {
  auto& reg = ThreadRegistry::instance();
  int tid = -1;
  uint64_t epoch1 = 0;
  test::run_threads(1, [&](int) {
    tid = my_tid();
    epoch1 = reg.slot_epoch(tid);
  });
  EXPECT_FALSE(reg.alive(tid));
  uint64_t epoch2 = 0;
  test::run_threads(1, [&](int) {
    EXPECT_EQ(my_tid(), tid);  // recycled
    epoch2 = reg.slot_epoch(tid);
  });
  EXPECT_GT(epoch2, epoch1);
}

TEST(ThreadRegistry, LiveCountTracksRegistration) {
  const int base = ThreadRegistry::instance().live_count();
  std::atomic<bool> hold{true};
  std::atomic<int> ready{0};
  std::thread t([&] {
    (void)my_tid();
    ready.store(1);
    while (hold.load()) std::this_thread::yield();
  });
  while (ready.load() == 0) std::this_thread::yield();
  EXPECT_EQ(ThreadRegistry::instance().live_count(), base + 1);
  hold.store(false);
  t.join();
  EXPECT_EQ(ThreadRegistry::instance().live_count(), base);
}

TEST(ThreadRegistry, PingOthersSkipsSelfAndCountsTargets) {
  // Signal disposition for kPingSignal may not be installed yet; use
  // signal 0 semantics via a harmless real signal: install SIG_IGN.
  struct sigaction sa = {};
  sa.sa_handler = SIG_IGN;
  sigaction(SIGUSR2, &sa, nullptr);

  (void)my_tid();  // ensure the main thread is registered before counting
  std::atomic<bool> hold{true};
  std::atomic<int> up{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < 3; ++i) {
    ts.emplace_back([&] {
      (void)my_tid();
      up.fetch_add(1);
      while (hold.load()) std::this_thread::yield();
    });
  }
  while (up.load() < 3) std::this_thread::yield();
  const int base = ThreadRegistry::instance().live_count();
  EXPECT_GE(base, 4);
  const int sent = ThreadRegistry::instance().ping_others(
      SIGUSR2, [](int) { return true; });
  EXPECT_EQ(sent, base - 1);  // every live thread but the caller
  hold.store(false);
  for (auto& t : ts) t.join();
}

}  // namespace
}  // namespace pop::runtime
