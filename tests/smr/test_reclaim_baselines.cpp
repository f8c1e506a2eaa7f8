// Behavioural tests of the baseline schemes' reclamation conditions:
// who may free what, while which reservation is held.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "runtime/pool_alloc.hpp"
#include "smr/all.hpp"
#include "../support/test_util.hpp"

namespace pop {
namespace {

using test::TNode;

smr::SmrConfig tiny() {
  smr::SmrConfig c;
  c.retire_threshold = 2;
  c.epoch_freq = 1;
  return c;
}

// Retire enough dummies from the main thread to force a scan.
template <class D>
void force_scans(D& d, int n = 16) {
  for (int i = 0; i < n; ++i) {
    typename D::Guard g(d);
    d.retire(d.template create<TNode>(1000 + i));
  }
}

TEST(HpBaseline, ReservedNodeSurvivesScan) {
  smr::HpDomain d(tiny());
  TNode* victim = d.create<TNode>(1);
  std::atomic<TNode*> src{victim};

  std::atomic<bool> reserved{false}, release{false};
  std::thread reader([&] {
    d.attach();
    d.begin_op();
    EXPECT_EQ(d.protect(0, src), victim);
    reserved.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!reserved.load()) std::this_thread::yield();

  {
    typename smr::HpDomain::Guard g(d);
    d.retire(victim);
  }
  force_scans(d);
  // victim retired but reserved: must not be freed.
  EXPECT_EQ(d.stats().unreclaimed() >= 1, true);
  EXPECT_EQ(victim->key, 1u);  // still readable

  release.store(true);
  reader.join();
  // After the reader cleared, scans are free to reclaim the victim (no
  // read of victim past this point); teardown drains the rest.
  force_scans(d);
}

TEST(HpAsymBaseline, ReservedNodeSurvivesScan) {
  smr::HpAsymDomain d(tiny());
  TNode* victim = d.create<TNode>(2);
  std::atomic<TNode*> src{victim};
  std::atomic<bool> reserved{false}, release{false};
  std::thread reader([&] {
    d.begin_op();
    EXPECT_EQ(d.protect(0, src), victim);
    reserved.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!reserved.load()) std::this_thread::yield();
  {
    typename smr::HpAsymDomain::Guard g(d);
    d.retire(victim);
  }
  force_scans(d);
  EXPECT_GE(d.stats().unreclaimed(), 1u);
  release.store(true);
  reader.join();
}

TEST(HeBaseline, EraReservationPinsLifespanIntersectingNodes) {
  smr::HeDomain d(tiny());
  TNode* victim = d.create<TNode>(3);  // birth era = current
  std::atomic<TNode*> src{victim};
  std::atomic<bool> reserved{false}, release{false};
  std::thread reader([&] {
    d.begin_op();
    EXPECT_EQ(d.protect(0, src), victim);  // reserves current era
    reserved.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!reserved.load()) std::this_thread::yield();
  {
    typename smr::HeDomain::Guard g(d);
    d.retire(victim);  // lifespan intersects the reader's reserved era
  }
  force_scans(d);
  EXPECT_GE(d.stats().unreclaimed(), 1u);
  release.store(true);
  reader.join();
}

TEST(HeBaseline, NodesBornAfterReservedEraAreFreeable) {
  smr::HeDomain d(tiny());
  // Main thread holds no reservation; all retired nodes freeable.
  force_scans(d, 32);
  const auto s = d.stats();
  EXPECT_GT(s.freed, 0u);
}

TEST(EbrBaseline, QuiescentThreadsAllowReclamation) {
  smr::EbrDomain d(tiny());
  force_scans(d, 32);
  EXPECT_GT(d.stats().freed, 0u);
}

TEST(EbrBaseline, InCriticalSectionReaderBlocksFrees) {
  smr::EbrDomain d(tiny());
  std::atomic<bool> entered{false}, release{false};
  std::thread reader([&] {
    d.begin_op();  // announces current epoch and stays
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!entered.load()) std::this_thread::yield();
  const auto before = d.stats();
  force_scans(d, 32);  // retires 32 nodes *after* the reader's epoch
  const auto after = d.stats();
  // Nodes retired at epochs >= the reader's announced epoch stay pinned.
  EXPECT_GT(after.unreclaimed(), before.unreclaimed());
  release.store(true);
  reader.join();
}

TEST(IbrBaseline, IntervalPinsOnlyIntersectingLifespans) {
  smr::IbrDomain d(tiny());
  std::atomic<bool> entered{false}, release{false};
  std::thread reader([&] {
    d.begin_op();  // reserves [e,e]
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!entered.load()) std::this_thread::yield();
  // Nodes born after the reader's interval upper bound are freeable even
  // though the reader never quiesces: this is IBR's point vs EBR.
  for (int i = 0; i < 64; ++i) {
    typename smr::IbrDomain::Guard g(d);
    d.retire(d.create<TNode>(static_cast<uint64_t>(i)));
  }
  EXPECT_GT(d.stats().freed, 0u);
  release.store(true);
  reader.join();
}

TEST(NrBaseline, NeverFreesDuringRun) {
  smr::NrDomain d(tiny());
  force_scans(d, 32);
  const auto s = d.stats();
  EXPECT_EQ(s.freed, 0u);
  EXPECT_EQ(s.retired, 32u);
}

TEST(BrcBaseline, FreesAfterGracePeriods) {
  smr::BrcDomain d(tiny());
  force_scans(d, 16);
  EXPECT_GT(d.stats().freed, 0u);
}

TEST(BrcBaseline, ActiveReaderBlocksGracePeriodUntilExit) {
  smr::BrcDomain d(tiny());
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> reclaimed{false};
  std::thread reader([&] {
    d.begin_op();
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!entered.load()) std::this_thread::yield();
  std::thread reclaimer([&] {
    force_scans(d, 8);  // grace period must wait for the reader
    reclaimed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(reclaimed.load());  // still blocked on the reader
  release.store(true);
  reader.join();
  reclaimer.join();
  EXPECT_TRUE(reclaimed.load());
  EXPECT_GT(d.stats().freed, 0u);
}

}  // namespace
}  // namespace pop
