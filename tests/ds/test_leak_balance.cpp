// Leak accounting: after a data structure (and its domain) is destroyed,
// every pool block it allocated must be back on a free list — the pool's
// global allocated/freed counters balance. This catches nodes lost
// outside any retire list (e.g. an unlink whose retire was skipped) for
// every scheme, including the signal-driven ones.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <tuple>

#include "ds/iset.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_registry.hpp"
#include "../support/test_util.hpp"

namespace pop::ds {
namespace {

class LeakBalance
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(LeakBalance, PoolBalancesAfterTeardown) {
  const auto before = runtime::PoolAllocator::instance().stats();
  {
    SetConfig cfg;
    cfg.capacity = 256;
    cfg.smr.retire_threshold = 8;
    cfg.smr.epoch_freq = 2;
    auto s = make_kv(std::get<0>(GetParam()), std::get<1>(GetParam()), cfg);
    ASSERT_NE(s, nullptr);
    std::atomic<int> arrived{0};
    test::run_threads(3, [&](int w) {
      (void)runtime::my_tid();
      arrived.fetch_add(1);
      while (arrived.load() < 3) std::this_thread::yield();
      runtime::Xoshiro256 rng(31 + w);
      for (int i = 0; i < 2500; ++i) {
        const uint64_t k = rng.next_below(128);
        const uint64_t dice = rng.next_below(100);
        if (dice < 30) {
          s->insert(k);
        } else if (dice < 60) {
          s->remove(k);
        } else if (dice < 80) {
          // Replaced nodes must be retired exactly once: a double retire
          // or a skipped retire both break the balance below.
          (void)s->put(k, rng.next());
        } else {
          (void)s->get(k, nullptr);
        }
      }
      s->detach_thread();
    });
    s->detach_thread();
  }  // IKV destroyed: live nodes freed by the DS, retired by the domain
  const auto after = runtime::PoolAllocator::instance().stats();
  // Quiescence: every block allocated under this scheme was freed (the
  // batched sweep path included).
  EXPECT_EQ(after.allocated_blocks - before.allocated_blocks,
            after.freed_blocks - before.freed_blocks)
      << "pool imbalance: some node was never freed (leak) for "
      << std::get<0>(GetParam()) << "/" << std::get<1>(GetParam());
  // (That a batched free moves surplus through the depot by the chunk —
  // transfers < blocks — is asserted by PoolAlloc.FreeBatchHandsWhole-
  // ChunksOn, where the block count is known.)
}

TEST_P(LeakBalance, PutReplaceBalancesUnderChurnAndStall) {
  // The put-replace retire path under the two lifecycle hazards the
  // scenario engine injects: thread churn (waves of short-lived workers
  // recycling registry tids mid-run) and a victim parked inside an
  // operation bracket pinning its entry-time reservation. Every displaced
  // node must still be retired exactly once and freed by teardown.
  const auto before = runtime::PoolAllocator::instance().stats();
  {
    SetConfig cfg;
    cfg.capacity = 256;
    cfg.smr.retire_threshold = 8;
    cfg.smr.epoch_freq = 2;
    auto s = make_kv(std::get<0>(GetParam()), std::get<1>(GetParam()), cfg);
    ASSERT_NE(s, nullptr);

    std::atomic<bool> release{false};
    std::atomic<bool> parked{false};
    std::thread victim([&] {
      parked.store(true);
      s->park_in_operation(release);
      s->detach_thread();
    });
    while (!parked.load()) std::this_thread::yield();
    // Timer-released (not released by worker progress): schemes whose
    // reclaim blocks on in-flight readers (BRC) stall the workers until
    // the victim resumes, so tying release to completion would deadlock.
    std::thread timer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      release.store(true);
    });

    // Churn: three waves of workers; each wave's threads exit (recycling
    // their tids for the next wave) while the victim stays parked for the
    // early part of the run.
    for (int wave = 0; wave < 3; ++wave) {
      test::run_threads(3, [&](int w) {
        runtime::Xoshiro256 rng(1000 * wave + w);
        for (int i = 0; i < 1200; ++i) {
          const uint64_t k = rng.next_below(64);
          const uint64_t dice = rng.next_below(100);
          if (dice < 55) {
            (void)s->put(k, rng.next());
          } else if (dice < 75) {
            s->remove(k);
          } else {
            uint64_t v = 0;
            (void)s->get(k, &v);
          }
        }
        s->detach_thread();
      });
    }
    timer.join();
    victim.join();
    s->detach_thread();
  }
  const auto after = runtime::PoolAllocator::instance().stats();
  EXPECT_EQ(after.allocated_blocks - before.allocated_blocks,
            after.freed_blocks - before.freed_blocks)
      << "pool imbalance on the put-replace path under churn+stall for "
      << std::get<0>(GetParam()) << "/" << std::get<1>(GetParam());
}

TEST_P(LeakBalance, ZombieKilledMidOperationIsReapedAndBalanced) {
  // The crash-fault lifecycle end to end: a worker dies *inside* an
  // operation bracket with its registry slot leaked (the hard zombie —
  // the TLS deregister never runs, so only the reaper's tgkill
  // certification can reclaim the tid). Survivor traffic must certify the
  // corpse, neutralize its reservations per scheme, adopt its orphaned
  // retire list, and by teardown the pool must balance: allocated ==
  // freed, i.e. the kill leaked nothing.
  const auto& ds = std::get<0>(GetParam());
  const auto& smr = std::get<1>(GetParam());
  const auto before = runtime::PoolAllocator::instance().stats();
  {
    SetConfig cfg;
    cfg.capacity = 256;
    cfg.smr.retire_threshold = 8;
    cfg.smr.epoch_freq = 2;
    auto s = make_kv(ds, smr, cfg);
    ASSERT_NE(s, nullptr);

    // The corpse: accumulates a private retire backlog (puts displace
    // nodes), then dies mid-operation.
    std::thread corpse([&] {
      runtime::Xoshiro256 rng(97);
      for (int i = 0; i < 800; ++i) {
        const uint64_t k = rng.next_below(64);
        const uint64_t dice = rng.next_below(100);
        if (dice < 40) {
          (void)s->put(k, rng.next());
        } else if (dice < 70) {
          s->remove(k);
        } else {
          s->insert(k);
        }
      }
      s->abandon_in_operation();
      runtime::ThreadRegistry::instance().detail_abandon_registration();
    });
    corpse.join();  // the kernel thread is gone; the slot still reads alive

    // Survivors churn enough reclaim passes for the staleness gate to
    // open and the certification to land, then detach cleanly.
    test::run_threads(3, [&](int w) {
      runtime::Xoshiro256 rng(500 + w);
      for (int i = 0; i < 2500; ++i) {
        const uint64_t k = rng.next_below(64);
        const uint64_t dice = rng.next_below(100);
        if (dice < 40) {
          (void)s->put(k, rng.next());
        } else if (dice < 70) {
          s->remove(k);
        } else {
          s->insert(k);
        }
      }
      s->detach_thread();
    });
    if (smr != "NR") {
      // NR has no reclaim pass, hence no reap site: its teardown drain
      // alone restores the balance, which the EXPECT below still checks.
      EXPECT_GE(s->smr_stats().tids_reaped, 1u)
          << "no survivor ever certified the corpse for " << ds << "/" << smr;
    }
    s->detach_thread();
  }
  const auto after = runtime::PoolAllocator::instance().stats();
  EXPECT_EQ(after.allocated_blocks - before.allocated_blocks,
            after.freed_blocks - before.freed_blocks)
      << "pool imbalance after a mid-operation kill for " << ds << "/" << smr
      << ": the corpse's garbage was never adopted or its reservations "
         "never neutralized";
}

// Resize-storm leak balance, RHHT under every scheme: an under-
// provisioned table (capacity 4, load factor 2) grows repeatedly under
// put-heavy traffic while a victim sits parked inside an operation
// bracket, so displaced bucket arrays — each one large pool block
// retired as a single Reclaimable — queue up behind a live reservation.
// Teardown must still return every block: node, dummy-backing list
// cells, and every generation of bucket array.
class ResizeStormLeakBalance
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ResizeStormLeakBalance, BucketArraysBalanceUnderStormAndStall) {
  const auto before = runtime::PoolAllocator::instance().stats();
  {
    SetConfig cfg;
    cfg.capacity = 4;
    cfg.load_factor = 2.0;
    cfg.smr.retire_threshold = 8;
    cfg.smr.epoch_freq = 2;
    auto s = make_kv("RHHT", GetParam(), cfg);
    ASSERT_NE(s, nullptr);

    std::atomic<bool> release{false};
    std::atomic<bool> parked{false};
    std::thread victim([&] {
      parked.store(true);
      s->park_in_operation(release);
      s->detach_thread();
    });
    while (!parked.load()) std::this_thread::yield();
    std::thread timer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      release.store(true);
    });

    // Two fill/drain waves per worker: the population swings force grows
    // on the way up and shrinks on the way down, so descriptors of both
    // polarities are retired while the victim is (initially) parked.
    test::run_threads(3, [&](int w) {
      runtime::Xoshiro256 rng(5000 + w);
      for (int wave = 0; wave < 2; ++wave) {
        for (int i = 0; i < 1500; ++i) {
          (void)s->put(rng.next_below(1024), rng.next());
        }
        for (int i = 0; i < 1500; ++i) {
          (void)s->remove(rng.next_below(1024));
        }
      }
      s->detach_thread();
    });
    timer.join();
    victim.join();
    EXPECT_GT(s->resize_stats().grows, 0u)
        << "the storm never grew the table; the test lost its point";
    s->detach_thread();
  }
  const auto after = runtime::PoolAllocator::instance().stats();
  EXPECT_EQ(after.allocated_blocks - before.allocated_blocks,
            after.freed_blocks - before.freed_blocks)
      << "pool imbalance after a resize storm under RHHT/" << GetParam()
      << ": a bucket array or node generation was never freed";
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ResizeStormLeakBalance,
                         ::testing::ValuesIn(all_smr_names()),
                         [](const auto& info) { return info.param; });

std::vector<std::tuple<std::string, std::string>> matrix() {
  std::vector<std::tuple<std::string, std::string>> v;
  for (const auto& ds : all_ds_names()) {
    for (const auto& smr : all_smr_names()) v.emplace_back(ds, smr);
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LeakBalance, ::testing::ValuesIn(matrix()),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace pop::ds
