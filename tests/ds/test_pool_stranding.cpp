// Memory a reclaimer frees must be reusable by every thread, not only by
// the thread that first allocated it. The shape that stranded it: the
// main thread prefills a tree and then stops allocating, while worker
// threads churn the tree, so their reclamation passes free the prefill
// nodes. Every cycle below replaces a fresh sixth of the prefill with the
// same number of new nodes; the live set never grows, so once the pool
// has warmed up no cycle may carve another slab. A pool that returns each
// block to the thread that carved it strands every replaced prefill node
// with the idle main thread and carves anew each cycle. Op counts are
// fixed, no two threads run at once, and nothing waits on a clock.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ds/iset.hpp"
#include "runtime/pool_alloc.hpp"
#include "../support/test_util.hpp"

namespace pop::ds {
namespace {

class PoolStranding : public ::testing::TestWithParam<std::string> {};

uint64_t slabs() { return runtime::PoolAllocator::instance().stats().slabs; }

TEST_P(PoolStranding, ChurnCyclesCarveNoNewSlabs) {
  constexpr uint64_t kKeys = 32768;  // the even ones are prefilled
  constexpr uint64_t kCycles = 6;
  constexpr int kWorkers = 3;
  SetConfig cfg;
  cfg.capacity = kKeys;
  auto s = make_kv("DGT", GetParam(), cfg);
  ASSERT_NE(s, nullptr);
  // An odd multiplier permutes the even keys (sorted inserts would build
  // this unbalanced tree as a list).
  for (uint64_t i = 0; i < kKeys / 2; ++i) {
    s->insert(2 * ((i * 0x9E3779B1u) % (kKeys / 2)));
  }
  uint64_t slabs_after_warmup = 0;
  for (uint64_t cycle = 0; cycle < kCycles; ++cycle) {
    // Three fresh threads replace every prefilled key k with
    // (k / 2) % kCycles == cycle: spread over the whole key range, and
    // striped so each key has one owner. They run one after another, so
    // how many nodes await reclamation at any point — and with it the
    // slab count — does not depend on the scheduler.
    for (int w = 0; w < kWorkers; ++w) {
      test::run_threads(1, [&](int) {
        for (uint64_t k = 2 * cycle; k < kKeys; k += 2 * kCycles) {
          if ((k / (2 * kCycles)) % kWorkers == static_cast<uint64_t>(w)) {
            EXPECT_TRUE(s->remove(k));
            EXPECT_TRUE(s->insert(k));
          }
        }
        s->detach_thread();
      });
    }
    if (cycle == 1) slabs_after_warmup = slabs();
  }
  EXPECT_EQ(slabs(), slabs_after_warmup)
      << "churn cycles 3.." << kCycles << " carved new slabs under "
      << GetParam() << ": freed prefill nodes were not reused";
  s->detach_thread();
  s.reset();  // tear down on the prefilling thread
  EXPECT_EQ(slabs(), slabs_after_warmup);
}

INSTANTIATE_TEST_SUITE_P(Schemes, PoolStranding,
                         ::testing::Values("EBR", "HazardPtrPOP"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace pop::ds
