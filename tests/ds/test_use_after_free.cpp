// Use-after-free detection: the pool allocator's poison mode fills freed
// payloads with a canary and aborts on double frees / corrupt headers.
// Running hot mixed workloads under every scheme with reclamation forced
// to be constant turns any premature free into a deterministic crash or a
// poisoned-read assertion — this is the safety net behind the paper's
// Property 2/4/6 claims.
//
// These tests set the process-global poison flag; gtest_discover_tests
// runs each test in its own process, so other suites are unaffected.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>

#include "ds/iset.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/rng.hpp"
#include "../support/test_util.hpp"

namespace pop::ds {
namespace {

class PoisonedWorkload
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  void SetUp() override { runtime::PoolAllocator::set_poison(true); }
  void TearDown() override { runtime::PoolAllocator::set_poison(false); }
};

TEST_P(PoisonedWorkload, HotReclamationNeverServesPoisonedNodes) {
  SetConfig cfg;
  cfg.capacity = 256;
  cfg.smr.retire_threshold = 4;  // reclaim as often as possible
  cfg.smr.epoch_freq = 1;
  cfg.smr.pop_multiplier = 2;
  auto s = make_kv(std::get<0>(GetParam()), std::get<1>(GetParam()), cfg);
  ASSERT_NE(s, nullptr);

  test::run_threads(4, [&](int w) {
    runtime::Xoshiro256 rng(777 + w);
    for (int i = 0; i < 3000; ++i) {
      const uint64_t k = rng.next_below(128);
      const uint64_t dice = rng.next_below(100);
      if (dice < 30) {
        (void)s->insert(k);
      } else if (dice < 60) {
        (void)s->remove(k);
      } else if (dice < 80) {
        // put-replace: displaced nodes are freed while other threads may
        // still hold them — the KV-specific premature-free hazard.
        (void)s->put(k, rng.next());
      } else {
        uint64_t v = 0;
        (void)s->get(k, &v);
      }
    }
    s->detach_thread();
  });
  // Reaching here without the allocator aborting means no double free or
  // header corruption. Structural consistency check: the node count must
  // equal the distinct-key membership recounted through the read path
  // (no duplicates, no lost unlinks). Op-return accounting is NOT an
  // invariant here: HML's lock-free put linearizes as delete+insert
  // under same-key contention, so put outcomes can hide a deletion.
  uint64_t present = 0;
  for (uint64_t k = 0; k < 128; ++k) present += s->get(k, nullptr);
  EXPECT_EQ(s->size_slow(), present);
  s->detach_thread();
}

TEST_P(PoisonedWorkload, PutReplaceSafeAroundParkedVictim) {
  // A victim thread parks inside an operation bracket (its entry-time
  // reservation live) while the others hammer put-replace on a tiny hot
  // key set: every replace retires a node some reader may hold, and the
  // parked reservation forces the scheme to either defer or publish-on-
  // ping around it. Poison mode turns any premature free into an abort.
  SetConfig cfg;
  cfg.capacity = 256;
  cfg.smr.retire_threshold = 4;
  cfg.smr.epoch_freq = 1;
  cfg.smr.pop_multiplier = 2;
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
  // The victim is released on a timer, never by worker progress: schemes
  // whose reclaim path blocks on in-flight readers (BRC's grace periods)
  // legitimately stall the workers until the victim resumes.
  std::thread timer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    release.store(true);
  });
  test::run_threads(3, [&](int w) {
    runtime::Xoshiro256 rng(99 + w);
    for (int i = 0; i < 2500; ++i) {
      const uint64_t k = rng.next_below(16);  // hot: constant displacement
      const uint64_t dice = rng.next_below(100);
      if (dice < 60) {
        (void)s->put(k, rng.next());
      } else if (dice < 75) {
        (void)s->remove(k);
      } else {
        uint64_t v = 0;
        (void)s->get(k, &v);
      }
    }
    s->detach_thread();
  });
  timer.join();
  victim.join();
  EXPECT_LE(s->size_slow(), 16u);
  s->detach_thread();
}

// Poisoned resize storm, RHHT only: bucket arrays are retired as single
// large Reclaimables while readers may still be walking shortcut cells
// of the displaced generation, and dummy nodes installed by cooperative
// bucket splits are reachable from two descriptors at once. Poison mode
// turns a premature array or dummy free into an abort; the parked victim
// forces the scheme to reclaim around a pinned reservation. (NR is
// excluded below with the rest of the poison matrix: it never frees.)
class PoisonedResizeStorm : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { runtime::PoolAllocator::set_poison(true); }
  void TearDown() override { runtime::PoolAllocator::set_poison(false); }
};

TEST_P(PoisonedResizeStorm, DisplacedBucketArraysNeverServePoison) {
  SetConfig cfg;
  cfg.capacity = 4;  // start at the bucket floor: every wave resizes
  cfg.load_factor = 2.0;
  cfg.smr.retire_threshold = 4;
  cfg.smr.epoch_freq = 1;
  cfg.smr.pop_multiplier = 2;
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
  test::run_threads(3, [&](int w) {
    runtime::Xoshiro256 rng(321 + w);
    for (int wave = 0; wave < 2; ++wave) {
      // Put-heavy fill then erase-heavy drain: grows and shrinks both
      // happen while other workers traverse the (old or new) table.
      for (int i = 0; i < 1500; ++i) {
        const uint64_t k = rng.next_below(768);
        if (rng.next_below(100) < 75) {
          (void)s->put(k, rng.next());
        } else {
          uint64_t v = 0;
          (void)s->get(k, &v);
        }
      }
      for (int i = 0; i < 1500; ++i) {
        const uint64_t k = rng.next_below(768);
        if (rng.next_below(100) < 75) {
          (void)s->remove(k);
        } else {
          (void)s->get(k, nullptr);
        }
      }
    }
    s->detach_thread();
  });
  timer.join();
  victim.join();
  // Surviving without an allocator abort is the verdict; the membership
  // recount cross-checks that no migration window duplicated or lost a
  // node.
  uint64_t present = 0;
  for (uint64_t k = 0; k < 768; ++k) present += s->get(k, nullptr);
  EXPECT_EQ(s->size_slow(), present);
  EXPECT_GT(s->resize_stats().resizes(), 0u)
      << "the storm never resized; the test lost its point";
  s->detach_thread();
}

std::vector<std::string> poison_scheme_list() {
  std::vector<std::string> v;
  for (const auto& smr : all_smr_names()) {
    if (smr != "NR") v.push_back(smr);
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PoisonedResizeStorm,
                         ::testing::ValuesIn(poison_scheme_list()),
                         [](const auto& info) { return info.param; });

// The poisoned matrix focuses on the schemes that actually free memory
// during the run (NR never frees, so poison proves nothing for it).
std::vector<std::tuple<std::string, std::string>> poison_matrix() {
  std::vector<std::tuple<std::string, std::string>> v;
  for (const auto& ds : all_ds_names()) {
    for (const auto& smr : all_smr_names()) {
      if (smr == "NR") continue;
      v.emplace_back(ds, smr);
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PoisonedWorkload, ::testing::ValuesIn(poison_matrix()),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace pop::ds
