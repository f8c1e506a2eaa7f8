// HazardEraPOP behaviour (paper Algorithm 5 / Appendix B.2): privately
// reserved eras pin exactly the nodes whose lifespan intersects them.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/hazard_era_pop.hpp"
#include "../support/test_util.hpp"

namespace pop::core {
namespace {

using test::TNode;

smr::SmrConfig tiny() {
  smr::SmrConfig c;
  c.retire_threshold = 2;
  return c;
}

TEST(HazardEraPop, EraAdvancesOnReclaim) {
  HazardEraPopDomain d(tiny());
  const uint64_t e0 = d.current_era();
  for (int i = 0; i < 8; ++i) {
    HazardEraPopDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  EXPECT_GT(d.current_era(), e0);
}

TEST(HazardEraPop, ReservedEraPinsIntersectingLifespan) {
  HazardEraPopDomain d(tiny());
  TNode* victim = d.create<TNode>(42);
  std::atomic<TNode*> src{victim};
  std::atomic<bool> reserved{false}, release{false};
  std::thread reader([&] {
    d.begin_op();
    EXPECT_EQ(d.protect(0, src), victim);  // reserves the current era
    reserved.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!reserved.load()) std::this_thread::yield();
  {
    HazardEraPopDomain::Guard g(d);
    d.retire(victim);  // lifespan [birth, now] intersects reader's era
  }
  for (int i = 0; i < 16; ++i) {
    HazardEraPopDomain::Guard g(d);
    d.retire(d.create<TNode>(100 + i));
  }
  EXPECT_GE(d.stats().unreclaimed(), 1u);
  EXPECT_EQ(victim->key, 42u);
  release.store(true);
  reader.join();
}

TEST(HazardEraPop, NodesBornAfterReservedEraAreFreed) {
  HazardEraPopDomain d(tiny());
  std::atomic<bool> entered{false}, release{false};
  std::thread reader([&] {
    d.begin_op();
    // Reserve the current era by protecting some node.
    TNode* n = d.create<TNode>(0);
    std::atomic<TNode*> src{n};
    d.protect(0, src);
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
    smr::destroy_unpublished(n);
  });
  while (!entered.load()) std::this_thread::yield();
  // Every reclaim bumps the era, so later nodes are born past the
  // reader's reservation and must still be freeable (HE's robustness).
  for (int i = 0; i < 64; ++i) {
    HazardEraPopDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  EXPECT_GT(d.stats().freed, 0u);
  release.store(true);
  reader.join();
}

TEST(HazardEraPop, EraReuseAvoidsRepublishing) {
  // Reading many pointers within one era reserves once (the HE selling
  // point, kept in the POP variant): just exercise the path.
  HazardEraPopDomain d;
  TNode* a = d.create<TNode>(1);
  TNode* b = d.create<TNode>(2);
  std::atomic<TNode*> sa{a}, sb{b};
  HazardEraPopDomain::Guard g(d);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(d.protect(0, sa), a);
    EXPECT_EQ(d.protect(1, sb), b);
  }
  EXPECT_EQ(d.stats().signals_sent, 0u);
  smr::destroy_unpublished(a);
  smr::destroy_unpublished(b);
}

}  // namespace
}  // namespace pop::core
