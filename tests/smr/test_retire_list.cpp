#include "smr/retire_list.hpp"

#include <gtest/gtest.h>

#include <new>
#include <utility>

#include "runtime/pool_alloc.hpp"

namespace pop::smr {
namespace {

// Larger than the pool's biggest size class: an ::operator new block,
// the shape of a large RHHT descriptor.
struct OversizedNode : Reclaimable {
  unsigned char payload[runtime::PoolAllocator::kMaxBlockSize] = {};
};

// A pool block with its Reclaimable base at offset 0, as create makes.
template <class T = Reclaimable>
T* make_node(uint64_t retire_era = 0) {
  T* n = ::new (runtime::pool_alloc(sizeof(T))) T();
  n->retire_era = retire_era;
  return n;
}

uint64_t freed_blocks() {
  return runtime::PoolAllocator::instance().stats().freed_blocks;
}

// Runs `free_some` (a sweep or a drain) and checks the pool freed exactly
// as many blocks as it reports: every freed node is one block, returned
// by its header alone.
template <class Fn>
uint64_t counted(Fn&& free_some) {
  const uint64_t before = freed_blocks();
  const uint64_t n = free_some();
  EXPECT_EQ(freed_blocks() - before, n);
  return n;
}

template <class Pred>
uint64_t sweep(RetireList& rl, Pred&& can_free,
               uint64_t below = RetireList::kWhole) {
  return counted([&] {
    runtime::PoolAllocator::FreeBatch batch;
    return rl.sweep_batch(std::forward<Pred>(can_free), batch, below);
  });
}

bool any(Reclaimable*) { return true; }

uint64_t drain(RetireList& rl) {
  return counted([&] { return rl.drain(); });
}

TEST(RetireList, StartsEmptyAndEmptySweepIsNoop) {
  RetireList rl;
  EXPECT_TRUE(rl.empty());
  EXPECT_EQ(rl.length(), 0u);
  EXPECT_EQ(sweep(rl, [](Reclaimable*) { return true; }), 0u);
}

TEST(RetireList, PushIncreasesLength) {
  RetireList rl;
  rl.push(make_node());
  rl.push(make_node());
  EXPECT_EQ(rl.length(), 2u);
  EXPECT_FALSE(rl.empty());
  EXPECT_EQ(drain(rl), 2u);
}

TEST(RetireList, SweepFreesOnlyMatching) {
  RetireList rl;
  for (uint64_t e = 0; e < 10; ++e) rl.push(make_node(e));
  EXPECT_EQ(sweep(rl, [](Reclaimable* n) { return n->retire_era < 5; }), 5u);
  EXPECT_EQ(rl.length(), 5u);
  EXPECT_EQ(drain(rl), 5u);
}

TEST(RetireList, SweepKeepsSurvivorsForLaterSweep) {
  RetireList rl;
  for (uint64_t e = 0; e < 6; ++e) rl.push(make_node(e));
  sweep(rl, [](Reclaimable* n) { return n->retire_era % 2 == 0; });
  EXPECT_EQ(rl.length(), 3u);
  EXPECT_EQ(sweep(rl, [](Reclaimable*) { return true; }), 3u);
  EXPECT_TRUE(rl.empty());
}

// The oldest retire_era the list holds, which lets an epoch sweep skip a
// walk that could free nothing: exact after pushes, whole sweeps and
// adoption, a lower bound after a bounded sweep, UINT64_MAX when empty.
TEST(RetireList, OldestEraTracksPushesSweepsAndAdoption) {
  RetireList rl;
  EXPECT_EQ(rl.oldest_era(), UINT64_MAX);
  for (uint64_t e : {5, 3, 7}) rl.push(make_node(e));
  EXPECT_EQ(rl.oldest_era(), 3u);
  EXPECT_EQ(sweep(rl, [](Reclaimable* n) { return n->retire_era < 5; }), 1u);
  EXPECT_EQ(rl.oldest_era(), 5u);  // recomputed from the survivors
  RetireList corpse;
  corpse.push(make_node(2));
  rl.adopt(corpse);
  EXPECT_EQ(rl.oldest_era(), 2u);
  EXPECT_EQ(corpse.oldest_era(), UINT64_MAX);
  rl.seal(1);
  rl.push(make_node(9));
  EXPECT_EQ(sweep(rl, any, 2), 3u);  // the sealed segment only
  EXPECT_LE(rl.oldest_era(), 9u);
  EXPECT_EQ(drain(rl), 1u);
  EXPECT_EQ(rl.oldest_era(), UINT64_MAX);
}

// 1000 blocks of one class fill several FreeBatch chunks: the full ones
// leave mid-drain, the partial one at flush, and all are counted.
TEST(RetireList, DrainFreesEverything) {
  RetireList rl;
  for (int i = 0; i < 1000; ++i) rl.push(make_node());
  EXPECT_EQ(drain(rl), 1000u);
  EXPECT_TRUE(rl.empty());
}

// Nodes of different size classes, and an oversized block, share one
// list; the sweep frees each by its slab header (found by masking the
// address) with no per-type code.
TEST(RetireList, SweepFreesMixedSizeClassesByHeader) {
  RetireList rl;
  for (uint64_t e = 0; e < 4; ++e) {
    rl.push(make_node(e));
    rl.push(make_node<OversizedNode>(e));
  }
  EXPECT_EQ(sweep(rl, [](Reclaimable* n) { return n->retire_era < 2; }), 4u);
  EXPECT_EQ(rl.length(), 4u);
  EXPECT_EQ(drain(rl), 4u);
}

// Segments (the publish-on-ping lazy sweep): a bounded sweep visits the
// sealed segments stamped below its bound, never the open one.
TEST(RetireList, BoundedSweepVisitsOnlySegmentsStampedBelow) {
  RetireList rl;
  rl.push(make_node());
  rl.push(make_node());
  rl.seal(1);
  rl.push(make_node());
  rl.seal(2);
  rl.push(make_node());  // open
  EXPECT_EQ(rl.open_length(), 1u);
  EXPECT_EQ(rl.oldest_sealed(), 1u);
  EXPECT_EQ(sweep(rl, any, 1), 0u);
  EXPECT_EQ(sweep(rl, any, 2), 2u);
  EXPECT_EQ(rl.length(), 2u);
  rl.cover(2);
  EXPECT_EQ(rl.oldest_sealed(), 2u);
  EXPECT_EQ(sweep(rl, any, 3), 1u);
  rl.cover(3);
  EXPECT_EQ(rl.oldest_sealed(), RetireList::kWhole);
  EXPECT_EQ(rl.length(), 1u);
  EXPECT_EQ(sweep(rl, any), 1u);
  EXPECT_TRUE(rl.empty());
}

// Equal stamps share a segment; past kMaxSealed stamps the newest
// segment takes the higher stamp (a later handshake, never an earlier).
TEST(RetireList, SealsMergeOnEqualStampAndRaiseTheNewestWhenFull) {
  RetireList rl;
  rl.push(make_node());
  rl.seal(5);
  rl.push(make_node());
  rl.seal(5);
  for (uint64_t stamp = 6; stamp < 6 + RetireList::kMaxSealed; ++stamp) {
    rl.push(make_node());
    rl.seal(stamp);
  }
  rl.seal(100);  // open is empty: no-op
  EXPECT_EQ(rl.open_length(), 0u);
  EXPECT_EQ(sweep(rl, any, 6), 2u);  // both stamp-5 seals
  const uint64_t last = 5 + RetireList::kMaxSealed;  // raised by the last seal
  EXPECT_EQ(sweep(rl, any, last), RetireList::kMaxSealed - 2);
  EXPECT_EQ(sweep(rl, any, last + 1), 2u);  // it holds the last two seals
  EXPECT_TRUE(rl.empty());
}

// Survivors of a covered sweep stay covered: every later bounded sweep
// visits them, whatever its bound.
TEST(RetireList, CoveredSurvivorsRejoinEveryLaterSweep) {
  RetireList rl;
  for (uint64_t e = 0; e < 4; ++e) rl.push(make_node(e));
  rl.seal(7);
  EXPECT_EQ(sweep(rl, [](Reclaimable* n) { return n->retire_era % 2 == 0; },
                  8),
            2u);
  rl.cover(8);
  rl.push(make_node());
  rl.seal(9);
  EXPECT_EQ(sweep(rl, any, 1), 2u);  // the covered two, not the stamp-9 one
  EXPECT_EQ(rl.length(), 1u);
  EXPECT_EQ(drain(rl), 1u);
}

// A reaped corpse's list joins the adopter's open segment, every segment
// of it.
TEST(RetireList, AdoptTakesEverySegmentIntoTheOpenOne) {
  RetireList corpse;
  corpse.push(make_node());
  corpse.seal(3);
  corpse.push(make_node());
  RetireList rl;
  rl.push(make_node());
  rl.seal(4);
  EXPECT_EQ(rl.adopt(corpse), 2u);
  EXPECT_TRUE(corpse.empty());
  EXPECT_EQ(rl.length(), 3u);
  EXPECT_EQ(rl.open_length(), 2u);
  EXPECT_EQ(sweep(rl, any, 5), 1u);  // the stamp-4 segment only
  EXPECT_EQ(drain(rl), 2u);
}

}  // namespace
}  // namespace pop::smr
