// EpochPOP behaviour (paper Algorithm 3): EBR-mode frees in the common
// case (no signals), POP-mode frees when a stalled thread pins the epoch
// — the paper's dual-mode claim, testable end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/epoch_pop.hpp"
#include "../support/test_util.hpp"

namespace pop::core {
namespace {

using test::TNode;

smr::SmrConfig tiny() {
  smr::SmrConfig c;
  c.retire_threshold = 4;
  c.epoch_freq = 1;
  c.pop_multiplier = 2;
  return c;
}

TEST(EpochPop, CommonCaseFreesViaEpochsWithoutSignals) {
  EpochPopDomain d(tiny());
  for (int i = 0; i < 64; ++i) {
    EpochPopDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  const auto s = d.stats();
  EXPECT_GT(s.ebr_frees, 0u);
  EXPECT_EQ(s.signals_sent, 0u) << "no delay: POP must not activate";
  EXPECT_EQ(s.pop_frees, 0u);
}

TEST(EpochPop, StalledReaderActivatesPopFallback) {
  EpochPopDomain d(tiny());
  std::atomic<bool> stalled{false}, release{false};
  std::thread sleeper([&] {
    d.begin_op();  // announces an epoch and never advances: pins EBR
    stalled.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!stalled.load()) std::this_thread::yield();
  for (int i = 0; i < 64; ++i) {
    EpochPopDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  const auto s = d.stats();
  EXPECT_GT(s.pop_frees, 0u) << "POP fallback must reclaim past the stall";
  EXPECT_GT(s.signals_sent, 0u);
  release.store(true);
  sleeper.join();
}

TEST(EpochPop, StalledReaderReservationIsStillRespected) {
  EpochPopDomain d(tiny());
  TNode* victim = d.create<TNode>(77);
  std::atomic<TNode*> src{victim};
  std::atomic<bool> stalled{false}, release{false};
  std::thread sleeper([&] {
    d.begin_op();
    EXPECT_EQ(d.protect(0, src), victim);  // local reservation
    stalled.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!stalled.load()) std::this_thread::yield();
  {
    EpochPopDomain::Guard g(d);
    d.retire(victim);
  }
  for (int i = 0; i < 64; ++i) {
    EpochPopDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  const auto s = d.stats();
  EXPECT_GT(s.pop_frees, 0u);
  EXPECT_EQ(victim->key, 77u) << "published reservation must protect victim";
  EXPECT_GE(s.unreclaimed(), 1u);
  release.store(true);
  sleeper.join();
}

TEST(EpochPop, EpochAdvancesWithOperations) {
  EpochPopDomain d(tiny());
  const uint64_t e0 = d.current_epoch();
  for (int i = 0; i < 16; ++i) {
    EpochPopDomain::Guard g(d);
  }
  EXPECT_GT(d.current_epoch(), e0);
}

TEST(EpochPop, NoGlobalModeSwitch_TwoReclaimersDifferentModes) {
  // One reclaimer is stalled-blind (epoch mode suffices for it) while
  // another must ping — both run concurrently without coordination.
  EpochPopDomain d(tiny());
  std::atomic<bool> stalled{false}, release{false};
  std::thread sleeper([&] {
    d.begin_op();
    stalled.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!stalled.load()) std::this_thread::yield();
  std::atomic<bool> ok{true};
  std::thread r1([&] {
    for (int i = 0; i < 32; ++i) {
      EpochPopDomain::Guard g(d);
      d.retire(d.create<TNode>(i));
    }
    d.detach();
  });
  std::thread r2([&] {
    for (int i = 0; i < 32; ++i) {
      EpochPopDomain::Guard g(d);
      d.retire(d.create<TNode>(1000 + i));
    }
    d.detach();
  });
  r1.join();
  r2.join();
  EXPECT_TRUE(ok.load());
  EXPECT_GT(d.stats().pop_frees, 0u);
  release.store(true);
  sleeper.join();
}

TEST(EpochPop, FallbackWaveFreesAnotherThreadsSealedRetires) {
  // The lazy sweep through the POP fallback: reader C pins the epoch and
  // privately reserves one of thread A's (this thread's) kEarly retires;
  // thread B retires until its list reaches pop_multiplier *
  // retire_threshold and pings. A's next retire, far below both of its
  // own triggers, frees every earlier node but C's, as POP frees, and
  // keeps the kLate nodes it retired after B's wave began.
  constexpr int kEarly = 10;
  constexpr int kLate = 5;
  smr::SmrConfig cfg;
  cfg.retire_threshold = 64;  // A seals per retire and never sweeps itself
  EpochPopDomain d(cfg);
  std::vector<TNode*> early;
  for (int i = 0; i < kEarly; ++i) early.push_back(d.create<TNode>(i));
  std::atomic<TNode*> src{early[0]};
  std::atomic<bool> reserved{false}, release{false};
  std::thread reader([&] {
    d.begin_op();  // announces an epoch and holds it: no epoch frees
    EXPECT_EQ(d.protect(0, src), early[0]);
    reserved.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!reserved.load()) std::this_thread::yield();
  src.store(nullptr);
  for (TNode* n : early) {
    EpochPopDomain::Guard g(d);
    d.retire(n);
  }
  std::thread pinger([&] {
    for (uint64_t i = 0; i < cfg.pop_multiplier * cfg.retire_threshold; ++i) {
      EpochPopDomain::Guard g(d);
      d.retire(d.create<TNode>(100 + i));
    }
    d.detach();
  });
  pinger.join();
  ASSERT_GT(d.stats().signals_sent, 0u) << "B's fallback never pinged";

  const auto before = d.stats();
  for (int i = 0; i <= kLate; ++i) {
    EpochPopDomain::Guard g(d);
    d.retire(d.create<TNode>(200 + i));
  }
  const auto after = d.stats();
  EXPECT_EQ(after.freed - before.freed, static_cast<uint64_t>(kEarly - 1));
  EXPECT_EQ(after.pop_frees - before.pop_frees,
            static_cast<uint64_t>(kEarly - 1));
  EXPECT_EQ(after.signals_sent, before.signals_sent);
  EXPECT_EQ(early[0]->key, 0u);
  release.store(true);
  reader.join();
  d.detach();
}

}  // namespace
}  // namespace pop::core
