// HazardPtrPOP-specific behaviour (paper Algorithms 1+2): fence-free
// private reservations protect nodes across the ping handshake exactly
// like eagerly-published hazard pointers would.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/hazard_ptr_pop.hpp"
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

}  // namespace
}  // namespace pop::core
