#include "smr/retire_list.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "runtime/pool_alloc.hpp"

namespace pop::smr {
namespace {

struct TestNode : Reclaimable {
  static int live;
  TestNode() { ++live; }
};
int TestNode::live = 0;

void test_deleter(Reclaimable* r) {
  --TestNode::live;
  delete static_cast<TestNode*>(r);
}

// One batched sweep; nodes without a batch hook free through their deleter.
template <class Pred>
uint64_t sweep(RetireList& rl, Pred&& can_free) {
  runtime::PoolAllocator::FreeBatch batch;
  return rl.sweep_batch(std::forward<Pred>(can_free), batch);
}

TestNode* make_node(uint64_t retire_era = 0) {
  auto* n = new TestNode();
  n->deleter = &test_deleter;
  n->retire_era = retire_era;
  return n;
}

TEST(RetireList, StartsEmpty) {
  RetireList rl;
  EXPECT_TRUE(rl.empty());
  EXPECT_EQ(rl.length(), 0u);
}

TEST(RetireList, PushIncreasesLength) {
  RetireList rl;
  rl.push(make_node());
  rl.push(make_node());
  EXPECT_EQ(rl.length(), 2u);
  EXPECT_FALSE(rl.empty());
  rl.drain();
  EXPECT_EQ(TestNode::live, 0);
}

TEST(RetireList, SweepFreesOnlyMatching) {
  RetireList rl;
  for (uint64_t e = 0; e < 10; ++e) rl.push(make_node(e));
  const uint64_t freed =
      sweep(rl, [](Reclaimable* n) { return n->retire_era < 5; });
  EXPECT_EQ(freed, 5u);
  EXPECT_EQ(rl.length(), 5u);
  EXPECT_EQ(TestNode::live, 5);
  rl.drain();
  EXPECT_EQ(TestNode::live, 0);
}

TEST(RetireList, SweepKeepsSurvivorsForLaterSweep) {
  RetireList rl;
  for (uint64_t e = 0; e < 6; ++e) rl.push(make_node(e));
  sweep(rl, [](Reclaimable* n) { return n->retire_era % 2 == 0; });
  EXPECT_EQ(rl.length(), 3u);
  const uint64_t freed = sweep(rl, [](Reclaimable*) { return true; });
  EXPECT_EQ(freed, 3u);
  EXPECT_TRUE(rl.empty());
  EXPECT_EQ(TestNode::live, 0);
}

TEST(RetireList, DrainFreesEverything) {
  RetireList rl;
  for (int i = 0; i < 100; ++i) rl.push(make_node());
  EXPECT_EQ(rl.drain(), 100u);
  EXPECT_TRUE(rl.empty());
  EXPECT_EQ(TestNode::live, 0);
}

TEST(RetireList, SweepOnEmptyListIsNoop) {
  RetireList rl;
  EXPECT_EQ(sweep(rl, [](Reclaimable*) { return true; }), 0u);
}

// ---- batched sweep --------------------------------------------------------

// Pool-backed node mirroring what DomainCore::create_node produces for a
// trivially destructible type: the identity hook, no per-node dispatch.
struct PoolNode : Reclaimable {
  uint64_t payload = 0;
};

PoolNode* make_pool_node(uint64_t retire_era) {
  auto* n = runtime::PoolAllocator::instance().create<PoolNode>();
  n->retire_era = retire_era;
  n->deleter = [](Reclaimable* r) {
    runtime::PoolAllocator::instance().destroy(static_cast<PoolNode*>(r));
  };
  n->batch_prep = &batch_prep_identity;
  return n;
}

TEST(RetireList, SweepBatchFreesOnlyMatchingAndKeepsRest) {
  RetireList rl;
  for (uint64_t e = 0; e < 10; ++e) rl.push(make_pool_node(e));
  const auto before = runtime::PoolAllocator::instance().stats();
  {
    runtime::PoolAllocator::FreeBatch batch;
    const uint64_t freed = rl.sweep_batch(
        [](Reclaimable* n) { return n->retire_era < 4; }, batch);
    EXPECT_EQ(freed, 4u);
  }
  EXPECT_EQ(rl.length(), 6u);
  const auto mid = runtime::PoolAllocator::instance().stats();
  EXPECT_EQ(mid.freed_blocks - before.freed_blocks, 4u);
  EXPECT_EQ(rl.drain(), 6u);
  const auto after = runtime::PoolAllocator::instance().stats();
  EXPECT_EQ(after.freed_blocks - before.freed_blocks, 10u);
  EXPECT_TRUE(rl.empty());
}

TEST(RetireList, SweepBatchRunsNonTrivialDestructors) {
  static int dtors;
  dtors = 0;
  struct DtorNode : Reclaimable {
    ~DtorNode() { ++dtors; }
  };
  RetireList rl;
  for (int i = 0; i < 8; ++i) {
    auto* n = runtime::PoolAllocator::instance().create<DtorNode>();
    n->deleter = [](Reclaimable* r) {
      runtime::PoolAllocator::instance().destroy(static_cast<DtorNode*>(r));
    };
    // What DomainCore stamps for a non-trivially-destructible type:
    // destroy in place, hand the block to the batch.
    n->batch_prep = [](Reclaimable* r) noexcept -> void* {
      auto* p = static_cast<DtorNode*>(r);
      p->~DtorNode();
      return p;
    };
    rl.push(n);
  }
  {
    runtime::PoolAllocator::FreeBatch batch;
    EXPECT_EQ(rl.sweep_batch([](Reclaimable*) { return true; }, batch), 8u);
  }
  EXPECT_EQ(dtors, 8);
}

TEST(RetireList, SweepBatchFallsBackToDeleterWithoutHook) {
  // Nodes outside the pool allocator (batch_prep == nullptr) must still be
  // freed through their per-node deleter on the batched path.
  RetireList rl;
  for (int i = 0; i < 5; ++i) rl.push(make_node());
  EXPECT_EQ(TestNode::live, 5);
  {
    runtime::PoolAllocator::FreeBatch batch;
    EXPECT_EQ(rl.sweep_batch([](Reclaimable*) { return true; }, batch), 5u);
    EXPECT_EQ(batch.blocks_added(), 0u);  // nothing entered the pool batch
  }
  EXPECT_EQ(TestNode::live, 0);
}

}  // namespace
}  // namespace pop::smr
