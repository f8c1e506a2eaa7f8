#include "smr/retire_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runtime/pool_alloc.hpp"
#include "runtime/rng.hpp"

namespace pop::smr {
namespace {

// A list node with a key the tests' predicates read; retire epochs live
// in the list, not here.
struct KNode : Reclaimable {
  uint64_t key = 0;
};

// Larger than the pool's biggest size class: an ::operator new block,
// the shape of a large RHHT descriptor.
struct OversizedNode : KNode {
  unsigned char payload[runtime::PoolAllocator::kMaxBlockSize] = {};
};

// A pool block with its Reclaimable base at offset 0, as create makes.
template <class T = KNode>
T* make_node(uint64_t key = 0) {
  T* n = ::new (runtime::pool_alloc(sizeof(T))) T();
  n->key = key;
  return n;
}

uint64_t key_of(Reclaimable* n) { return static_cast<KNode*>(n)->key; }

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

uint64_t sweep_epochs(RetireList& rl, uint64_t min_epoch) {
  return counted([&] {
    runtime::PoolAllocator::FreeBatch batch;
    return rl.sweep_epochs(min_epoch, batch, [](Reclaimable*) {});
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
  EXPECT_EQ(sweep_epochs(rl, UINT64_MAX), 0u);
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
  for (uint64_t e = 0; e < 10; ++e) rl.push(make_node(e), e);
  EXPECT_EQ(sweep(rl, [](Reclaimable* n) { return key_of(n) < 5; }), 5u);
  EXPECT_EQ(rl.length(), 5u);
  EXPECT_EQ(drain(rl), 5u);
}

TEST(RetireList, SweepKeepsSurvivorsForLaterSweep) {
  RetireList rl;
  for (uint64_t e = 0; e < 6; ++e) rl.push(make_node(e));
  sweep(rl, [](Reclaimable* n) { return key_of(n) % 2 == 0; });
  EXPECT_EQ(rl.length(), 3u);
  EXPECT_EQ(sweep(rl, [](Reclaimable*) { return true; }), 3u);
  EXPECT_TRUE(rl.empty());
}

// An epoch sweep frees, whole, every segment retired before its bound,
// sealed or open, and leaves the rest: a node retired at epoch e goes at
// the first sweep whose bound exceeds e, whatever was retired after it.
TEST(RetireList, EpochSweepFreesEverySegmentRetiredBeforeTheBound) {
  RetireList rl;
  for (uint64_t e : {1, 1, 2, 4, 4, 4}) rl.push(make_node(e), e);
  rl.seal(0);
  rl.push(make_node(5), 5);
  std::vector<uint64_t> freed;
  runtime::PoolAllocator::FreeBatch batch;
  EXPECT_EQ(rl.sweep_epochs(
                2, batch, [&](Reclaimable* n) { freed.push_back(key_of(n)); }),
            2u);
  batch.flush();
  EXPECT_EQ(freed, (std::vector<uint64_t>{1, 1}));
  EXPECT_EQ(rl.length(), 5u);
  EXPECT_EQ(sweep_epochs(rl, 4), 1u);  // epoch 2
  EXPECT_EQ(sweep_epochs(rl, 4), 0u);
  EXPECT_EQ(sweep_epochs(rl, 5), 3u);  // the sealed epoch-4 segment
  EXPECT_EQ(rl.open_length(), 1u);
  EXPECT_EQ(sweep_epochs(rl, 6), 1u);
  EXPECT_TRUE(rl.empty());
}

// The oldest segment's epoch, which lets an epoch sweep skip a walk that
// could free nothing: the lowest epoch held, UINT64_MAX when empty, and a
// reaped corpse's older segments sort in front of the adopter's.
TEST(RetireList, OldestEpochTracksPushesSweepsAndAdoption) {
  RetireList rl;
  EXPECT_EQ(rl.oldest_epoch(), UINT64_MAX);
  for (uint64_t e : {3, 5, 7}) rl.push(make_node(e), e);
  EXPECT_EQ(rl.oldest_epoch(), 3u);
  EXPECT_EQ(sweep(rl, [](Reclaimable* n) { return key_of(n) < 5; }), 1u);
  EXPECT_EQ(rl.oldest_epoch(), 5u);  // the emptied segment is gone
  RetireList corpse;
  corpse.push(make_node(2), 2);
  corpse.push(make_node(6), 6);
  rl.adopt(corpse);
  EXPECT_EQ(rl.oldest_epoch(), 2u);
  EXPECT_EQ(corpse.oldest_epoch(), UINT64_MAX);
  EXPECT_EQ(sweep_epochs(rl, 6), 2u);  // epochs 2 and 5
  EXPECT_EQ(rl.oldest_epoch(), 6u);
  EXPECT_EQ(drain(rl), 2u);
  EXPECT_EQ(rl.oldest_epoch(), UINT64_MAX);
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
    rl.push(make_node(e), e);
    rl.push(make_node<OversizedNode>(e), e);
  }
  EXPECT_EQ(sweep_epochs(rl, 2), 4u);
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

// Seals of one epoch under one stamp share a segment; a full table merges
// its two oldest neighbours of equal stamp, raising the older epoch (the
// newest segments, where pushes land, keep theirs), and with no equal
// stamps left it merges the two oldest, raising the older stamp.
TEST(RetireList, FullTableMergesTheOldestNeighbours) {
  RetireList rl;
  rl.push(make_node(), 1);
  rl.seal(5);
  rl.push(make_node(), 1);
  rl.seal(5);  // joins: same epoch, same stamp
  EXPECT_FALSE(rl.overflowed());
  constexpr uint64_t k = RetireList::kMaxSegments;
  for (uint64_t e = 2; e <= k; ++e) {  // k segments, one per epoch, all stamp 5
    rl.push(make_node(), e);
    rl.seal(5);
  }
  EXPECT_FALSE(rl.overflowed());
  rl.push(make_node(), k + 1);  // the table is full
  EXPECT_TRUE(rl.overflowed());
  EXPECT_EQ(rl.oldest_epoch(), 2u);  // epochs 1 and 2 merged
  EXPECT_EQ(sweep_epochs(rl, 2), 0u);
  EXPECT_EQ(sweep_epochs(rl, 3), 3u);  // the two epoch-1 nodes go with it
  EXPECT_EQ(drain(rl), k - 1);

  // Distinct stamps throughout: the two oldest merge under the newer one.
  RetireList fresh;
  for (uint64_t s = 1; s <= k; ++s) {
    fresh.push(make_node());
    fresh.seal(s);
  }
  EXPECT_FALSE(fresh.overflowed());
  fresh.push(make_node());
  EXPECT_TRUE(fresh.overflowed());
  EXPECT_EQ(fresh.oldest_sealed(), 2u);
  EXPECT_EQ(sweep(fresh, any, 2), 0u);  // stamp 1 was raised to 2
  EXPECT_EQ(sweep(fresh, any, 3), 2u);
  EXPECT_EQ(drain(fresh), k - 1);
}

// Survivors of a covered sweep stay covered: every later bounded sweep
// visits them, whatever its bound.
TEST(RetireList, CoveredSurvivorsRejoinEveryLaterSweep) {
  RetireList rl;
  for (uint64_t e = 0; e < 4; ++e) rl.push(make_node(e));
  rl.seal(7);
  EXPECT_EQ(sweep(rl, [](Reclaimable* n) { return key_of(n) % 2 == 0; }, 8),
            2u);
  rl.cover(8);
  rl.push(make_node());
  rl.seal(9);
  EXPECT_EQ(sweep(rl, any, 1), 2u);  // the covered two, not the stamp-9 one
  EXPECT_EQ(rl.length(), 1u);
  EXPECT_EQ(drain(rl), 1u);
}

// A reaped corpse's list joins the adopter's as open segments, every
// segment of it.
TEST(RetireList, AdoptTakesEverySegmentAsAnOpenOne) {
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

// ---- differential test -----------------------------------------------------
//
// The list against a reference that keeps every node's own epoch and
// state, over seeded random sequences of pushes (nondecreasing epochs),
// seals, covers, epoch sweeps, ticket-bounded predicate sweeps and
// adoptions. Until a list's table overflows, both free the same nodes at
// the same step; after, the list may only have freed a subset.

class Reference {
 public:
  void push(uint64_t key, uint64_t epoch) {
    live_[key] = {epoch, RetireList::kWhole};
  }
  void seal(uint64_t stamp) {
    for (auto& [k, n] : live_) {
      if (n.needs == RetireList::kWhole) n.needs = stamp + 1;
    }
  }
  void cover(uint64_t below) {
    for (auto& [k, n] : live_) {
      if (n.needs <= below) n.needs = 0;
    }
  }
  template <class Pred>
  void sweep(Pred&& can_free, uint64_t below, std::set<uint64_t>& freed) {
    erase_if([&](uint64_t k, const Node& n) {
      return n.needs <= below && can_free(k);
    }, freed);
  }
  void sweep_epochs(uint64_t min_epoch, std::set<uint64_t>& freed) {
    erase_if([&](uint64_t, const Node& n) { return n.epoch < min_epoch; },
             freed);
  }
  void adopt(Reference& other) {
    for (auto& [k, n] : other.live_) live_[k] = {n.epoch, RetireList::kWhole};
    other.live_.clear();
  }
  uint64_t size() const { return live_.size(); }
  uint64_t open_length() const {
    uint64_t c = 0;
    for (const auto& [k, n] : live_) c += n.needs == RetireList::kWhole;
    return c;
  }
  uint64_t oldest_epoch() const {
    uint64_t e = UINT64_MAX;
    for (const auto& [k, n] : live_) e = std::min(e, n.epoch);
    return e;
  }
  uint64_t oldest_sealed() const {
    uint64_t s = RetireList::kWhole;
    for (const auto& [k, n] : live_) {
      if (n.needs != 0 && n.needs != RetireList::kWhole) {
        s = std::min(s, n.needs - 1);
      }
    }
    return s;
  }

 private:
  struct Node {
    uint64_t epoch;
    uint64_t needs;  // RetireList's encoding: 0 covered, s + 1, kWhole open
  };
  template <class Pred>
  void erase_if(Pred&& pred, std::set<uint64_t>& freed) {
    for (auto it = live_.begin(); it != live_.end();) {
      if (pred(it->first, it->second)) {
        freed.insert(it->first);
        it = live_.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::map<uint64_t, Node> live_;
};

// One seeded run. Returns whether the table overflowed; every check
// failure names the seed and the step.
bool run_differential(uint64_t seed) {
  runtime::Xoshiro256 rng(seed);
  // Odd seeds are calm, like a run without a stall: the epoch moves
  // rarely, epoch sweeps trail it closely and handshakes are few, so the
  // table seldom fills. Even seeds are stormy and mostly overflow.
  const bool calm = seed % 2 == 1;
  const uint32_t advance_pct =
      calm ? 3 : 5 + static_cast<uint32_t>(rng.next_below(40));
  const uint32_t stamp_pct = calm ? 10 : 50;
  const uint32_t sweep_pct = 2 + static_cast<uint32_t>(rng.next_below(12));
  RetireList list, corpse;
  Reference ref, ref_corpse;
  std::set<uint64_t> list_freed, ref_freed;
  uint64_t key = 0, epoch = 1, stamp = 0, sweeps = 0;
  auto check = [&](int step, const char* op) {
    const std::string where = "seed " + std::to_string(seed) + " step " +
                              std::to_string(step) + " (" + op + ")";
    const bool exact = !list.overflowed() && !corpse.overflowed();
    if (exact) {
      EXPECT_EQ(list_freed, ref_freed) << where;
      EXPECT_EQ(list.length(), ref.size()) << where;
      EXPECT_EQ(list.open_length(), ref.open_length()) << where;
      EXPECT_EQ(list.oldest_epoch(), ref.oldest_epoch()) << where;
      EXPECT_EQ(list.oldest_sealed(), ref.oldest_sealed()) << where;
    } else {
      for (uint64_t k : list_freed) {
        if (ref_freed.count(k) == 0) {
          ADD_FAILURE() << where << ": node " << k
                        << " freed before the per-node reference frees it";
          return false;
        }
      }
      EXPECT_GE(list.length(), ref.size()) << where;
    }
    return !::testing::Test::HasFailure();
  };
  for (int step = 0; step < 600; ++step) {
    const uint64_t r = rng.next_below(100);
    const char* op;
    if (rng.percent(advance_pct)) ++epoch;
    if (r < 40) {
      op = "push";
      list.push(make_node(key), epoch);
      ref.push(key++, epoch);
    } else if (r < 50) {
      op = "push corpse";
      corpse.push(make_node(key), epoch);
      ref_corpse.push(key++, epoch);
    } else if (r < 58) {
      op = "seal";
      if (rng.percent(stamp_pct)) ++stamp;
      list.seal(stamp);
      ref.seal(stamp);
    } else if (r < 61) {
      op = "seal corpse";
      corpse.seal(stamp);
      ref_corpse.seal(stamp);
    } else if (r < 66) {
      op = "cover";
      const uint64_t below =
          rng.percent(20) ? RetireList::kWhole : 1 + rng.next_below(stamp + 1);
      list.cover(below);
      ref.cover(below);
    } else if (r < 66 + sweep_pct) {
      op = "predicate sweep";
      const uint64_t below =
          rng.percent(30) ? RetireList::kWhole : 1 + rng.next_below(stamp + 1);
      const uint64_t salt = seed * 1000003 + ++sweeps;
      auto can_free = [salt](uint64_t k) {
        uint64_t s = k ^ salt;
        return (runtime::splitmix64(s) & 3) != 0;
      };
      runtime::PoolAllocator::FreeBatch batch;
      list.sweep_batch(
          [&](Reclaimable* n) {
            if (!can_free(key_of(n))) return false;
            list_freed.insert(key_of(n));
            return true;
          },
          batch, below);
      ref.sweep(can_free, below, ref_freed);
    } else if (r < 80 + sweep_pct) {
      op = "epoch sweep";
      const uint64_t min_epoch =
          calm ? epoch + 1 - rng.next_below(3) : rng.next_below(epoch + 2);
      runtime::PoolAllocator::FreeBatch batch;
      list.sweep_epochs(min_epoch, batch, [&](Reclaimable* n) {
        list_freed.insert(key_of(n));
      });
      ref.sweep_epochs(min_epoch, ref_freed);
    } else if (r < 83 + sweep_pct) {
      op = "adopt";
      list.adopt(corpse);
      ref.adopt(ref_corpse);
    } else {
      op = "advance";
      if (!calm) epoch += rng.next_below(3);
    }
    if (!check(step, op)) break;
  }
  const bool overflowed = list.overflowed() || corpse.overflowed();
  list.drain();
  corpse.drain();
  return overflowed;
}

TEST(RetireList, DifferentialAgainstPerNodeEpochs) {
  int exact = 0, overflowed = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    if (run_differential(seed)) {
      ++overflowed;
    } else {
      ++exact;
    }
    if (HasFailure()) {
      std::fprintf(stderr, "RetireList differential failed at seed %llu\n",
                   static_cast<unsigned long long>(seed));
      break;
    }
  }
  // Both regimes must actually be exercised.
  EXPECT_GT(exact, 20);
  EXPECT_GT(overflowed, 20);
}

}  // namespace
}  // namespace pop::smr
