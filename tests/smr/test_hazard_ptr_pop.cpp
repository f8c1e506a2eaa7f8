// HazardPtrPOP-specific behaviour (paper Algorithms 1+2): fence-free
// private reservations protect nodes across the ping handshake exactly
// like eagerly-published hazard pointers would.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/hazard_ptr_pop.hpp"
#include "runtime/fault_inject.hpp"
#include "../support/test_util.hpp"

namespace pop::core {
namespace {

using test::TNode;

smr::SmrConfig tiny() {
  smr::SmrConfig c;
  c.retire_threshold = 2;
  return c;
}

TEST(HazardPtrPop, PrivatelyReservedNodeSurvivesReclaim) {
  HazardPtrPopDomain d(tiny());
  TNode* victim = d.create<TNode>(11);
  std::atomic<TNode*> src{victim};
  std::atomic<bool> reserved{false}, release{false};
  std::thread reader([&] {
    d.begin_op();
    EXPECT_EQ(d.protect(0, src), victim);  // private, no fence
    reserved.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!reserved.load()) std::this_thread::yield();

  {
    HazardPtrPopDomain::Guard g(d);
    d.retire(victim);
  }
  for (int i = 0; i < 16; ++i) {  // repeated reclaims: all must skip victim
    HazardPtrPopDomain::Guard g(d);
    d.retire(d.create<TNode>(100 + i));
  }
  EXPECT_GE(d.stats().unreclaimed(), 1u);
  EXPECT_EQ(victim->key, 11u);
  EXPECT_GT(d.stats().signals_sent, 0u);

  release.store(true);
  reader.join();
}

TEST(HazardPtrPop, UnreservedNodesAreFreedByHandshake) {
  HazardPtrPopDomain d(tiny());
  for (int i = 0; i < 32; ++i) {
    HazardPtrPopDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  const auto s = d.stats();
  EXPECT_GT(s.freed, 0u);
  EXPECT_GT(s.scans, 0u);
}

TEST(HazardPtrPop, ClearedReservationAllowsFree) {
  HazardPtrPopDomain d(tiny());
  TNode* victim = d.create<TNode>(5);
  std::atomic<TNode*> src{victim};
  std::atomic<int> stage{0};
  std::thread reader([&] {
    d.begin_op();
    d.protect(0, src);
    stage.store(1);
    while (stage.load() < 2) std::this_thread::yield();
    d.end_op();  // drops the reservation
    stage.store(3);
    while (stage.load() < 4) std::this_thread::yield();
    d.detach();
  });
  while (stage.load() < 1) std::this_thread::yield();
  {
    HazardPtrPopDomain::Guard g(d);
    d.retire(victim);
  }
  stage.store(2);
  while (stage.load() < 3) std::this_thread::yield();
  const auto before = d.stats().freed;
  for (int i = 0; i < 8; ++i) {
    HazardPtrPopDomain::Guard g(d);
    d.retire(d.create<TNode>(200 + i));
  }
  EXPECT_GT(d.stats().freed, before);
  stage.store(4);
  reader.join();
}

TEST(HazardPtrPop, ReadPathSendsNoSignals) {
  HazardPtrPopDomain d;  // large threshold: no reclaim triggered
  TNode* n = d.create<TNode>(1);
  std::atomic<TNode*> src{n};
  for (int i = 0; i < 10000; ++i) {
    HazardPtrPopDomain::Guard g(d);
    (void)d.protect(0, src);
  }
  EXPECT_EQ(d.stats().signals_sent, 0u);  // the paper's point: signal cost
  smr::destroy_unpublished(n);            // only when reclaiming
}

TEST(HazardPtrPop, GarbageBoundHolds) {
  // Property 3: unreclaimed <= threshold + N*H (here N=2 threads, H=slots).
  smr::SmrConfig c;
  c.retire_threshold = 8;
  c.num_slots = 4;
  HazardPtrPopDomain d(c);
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load()) {
      HazardPtrPopDomain::Guard g(d);
      d.retire(d.create<TNode>(0));
    }
    d.detach();
  });
  for (int i = 0; i < 5000; ++i) {
    HazardPtrPopDomain::Guard g(d);
    d.retire(d.create<TNode>(1));
  }
  stop.store(true);
  churn.join();
  const auto s = d.stats();
  // Generous bound: per-thread threshold + N*H slack, for 2 retire lists.
  EXPECT_LE(s.unreclaimed(), 2 * (c.retire_threshold + 2 * c.num_slots));
}

// The lazy sweep (pop_engine.hpp): thread A (this thread) retires kEarly
// nodes, one of them privately reserved by reader C; thread B retires up
// to its tick and runs a handshake; A then retires kLate + 1 more, far
// below its own tick. B's wave covers A's kEarly nodes, so A's next
// retire frees all of them but the reserved one; the kLate nodes, retired
// after B took its ticket, stay. Returns the domain's frees during A's
// late retires. With `lose_reader_pings`, every ping to C is dropped, so
// B's handshake times out instead of completing.
constexpr int kEarly = 10;
constexpr int kLate = 5;

struct LazyRun {
  uint64_t late_frees = 0;
  uint64_t waves_timed_out = 0;
};

LazyRun run_lazy_sweep(bool lose_reader_pings) {
  smr::SmrConfig cfg;
  cfg.retire_threshold = 64;  // A never reaches its tick; it seals per retire
  HazardPtrPopDomain d(cfg);
  std::vector<TNode*> early;
  for (int i = 0; i < kEarly; ++i) early.push_back(d.create<TNode>(i));
  std::atomic<TNode*> src{early[0]};
  std::atomic<int> reader_tid{-1};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    d.begin_op();
    EXPECT_EQ(d.protect(0, src), early[0]);  // private, no fence
    reader_tid.store(runtime::my_tid());
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (reader_tid.load() < 0) std::this_thread::yield();
  src.store(nullptr);  // unlinked before it is retired
  for (TNode* n : early) {
    HazardPtrPopDomain::Guard g(d);
    d.retire(n);
  }

  auto& faults = runtime::FaultInjection::instance();
  if (lose_reader_pings) {
    setenv("POPSMR_PING_TIMEOUT_MS", "20", /*overwrite=*/1);
    faults.arm_signal_loss(100, reader_tid.load());
  }
  std::thread pinger([&] {
    for (uint64_t i = 0; i < cfg.retire_threshold; ++i) {
      HazardPtrPopDomain::Guard g(d);
      d.retire(d.create<TNode>(100 + i));
    }
    d.detach();
  });
  pinger.join();
  faults.disarm();
  unsetenv("POPSMR_PING_TIMEOUT_MS");

  const auto before = d.stats();
  for (int i = 0; i <= kLate; ++i) {
    HazardPtrPopDomain::Guard g(d);
    d.retire(d.create<TNode>(200 + i));
  }
  const auto after = d.stats();
  EXPECT_EQ(after.signals_sent, before.signals_sent)
      << "A ran a handshake of its own";
  EXPECT_EQ(early[0]->key, 0u);
  release.store(true);
  reader.join();
  d.detach();
  return {after.freed - before.freed, after.waves_timed_out};
}

TEST(HazardPtrPop, OneWaveFreesAnotherThreadsSealedRetires) {
  const LazyRun r = run_lazy_sweep(/*lose_reader_pings=*/false);
  EXPECT_EQ(r.late_frees, static_cast<uint64_t>(kEarly - 1))
      << "B's handshake must cover A's earlier retires, all but the one C "
         "holds, and none of those A retired after it";
  EXPECT_EQ(r.waves_timed_out, 0u);
}

TEST(HazardPtrPop, TimedOutHandshakeCertifiesNothing) {
  const LazyRun r = run_lazy_sweep(/*lose_reader_pings=*/true);
  EXPECT_GT(r.waves_timed_out, 0u) << "the dropped pings were not exercised";
  EXPECT_EQ(r.late_frees, 0u)
      << "a handshake C never answered covered A's retires";
}

}  // namespace
}  // namespace pop::core
