// Thread-lifecycle churn across every scheme: workers repeatedly
// deregister and fresh threads re-register (recycling dense tids with a
// bumped slot_epoch) while a long-lived reclaimer keeps retiring — so
// ping waves and handshake waits are constantly aimed at tids whose
// owner just changed. Afterwards the pool must balance: a reservation
// slot left pinned by a stale (pre-recycle) observation would leak
// blocks, and a handshake that failed to notice the epoch bump would
// hang the reclaimer outright.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "ds/iset.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_registry.hpp"
#include "../support/test_util.hpp"

namespace pop::ds {
namespace {

class ThreadChurn : public ::testing::TestWithParam<std::string> {};

TEST_P(ThreadChurn, RecycledTidsLeaveNoSlotPinned) {
  const std::string smr = GetParam();
  const auto before = runtime::PoolAllocator::instance().stats();
  std::map<int, std::set<uint64_t>> tid_epochs;  // tid -> epochs observed
  std::mutex mu;
  {
    SetConfig cfg;
    cfg.capacity = 256;
    cfg.smr.retire_threshold = 16;
    cfg.smr.epoch_freq = 2;
    auto s = make_kv("HML", smr, cfg);
    ASSERT_NE(s, nullptr);

    // Long-lived reclaimer: constant retires keep reclamation passes (and
    // for the signal-based schemes, ping waves) in flight for the whole
    // churn sequence.
    std::atomic<bool> stop{false};
    std::thread reclaimer([&] {
      runtime::Xoshiro256 rng(7);
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t k = rng.next_below(128);
        s->insert(k);
        s->remove(k);
      }
      s->detach_thread();
    });

    auto& reg = runtime::ThreadRegistry::instance();
    constexpr int kRounds = 8;
    constexpr int kWorkers = 3;
    for (int round = 0; round < kRounds; ++round) {
      test::run_threads(kWorkers, [&](int w) {
        const int tid = runtime::my_tid();
        {
          std::lock_guard<std::mutex> g(mu);
          tid_epochs[tid].insert(reg.slot_epoch(tid));
        }
        runtime::Xoshiro256 rng(1000 * round + w);
        for (int i = 0; i < 400; ++i) {
          const uint64_t k = rng.next_below(128);
          const uint64_t dice = rng.next_below(100);
          if (dice < 40) {
            s->insert(k);
          } else if (dice < 80) {
            s->remove(k);
          } else {
            (void)s->get(k, nullptr);
          }
        }
        s->detach_thread();
      });  // threads exit here: tids deregister, epochs bump
    }

    stop.store(true, std::memory_order_release);
    reclaimer.join();
    s->detach_thread();

    // Registration epochs: at least one dense tid must have been recycled
    // across rounds (same slot, different epoch) — the exact condition
    // in-flight ping waves have to survive.
    bool recycled = false;
    for (const auto& [tid, epochs] : tid_epochs) {
      if (epochs.size() >= 2) recycled = true;
    }
    EXPECT_TRUE(recycled)
        << "churn rounds never recycled a tid; the test lost its point";
  }  // set + domain destroyed: all retire lists drained
  const auto after = runtime::PoolAllocator::instance().stats();
  EXPECT_EQ(after.allocated_blocks - before.allocated_blocks,
            after.freed_blocks - before.freed_blocks)
      << "pool imbalance after tid churn for " << smr
      << ": a recycled slot left a reservation pinned";
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ThreadChurn,
                         ::testing::ValuesIn(all_smr_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace pop::ds
