// Resizable hash table (RHHT) semantics: the split-ordered table must
// behave exactly like a map while its bucket array is being replaced
// underneath the operations — grow on load-factor breach, shrink after
// a sustained drain, items never moving (only the shortcut array does).
// The differential tests force both directions and compare against
// std::map under every scheme; the concurrent tests make the growth
// happen *during* the insert storm rather than between operations.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>

#include "core/hazard_ptr_pop.hpp"
#include "ds/iset.hpp"
#include "ds/resizable_hash_table.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/rng.hpp"
#include "service/sharded_map.hpp"
#include "smr/ebr.hpp"
#include "smr/hp.hpp"
#include "smr/nbr.hpp"
#include "../support/test_util.hpp"

namespace pop::ds {
namespace {

// Tiny capacity + small load factor: the table starts at the 2-bucket
// floor and every few dozen inserts breach the watermark, so a short
// test sees several doublings (and halvings on the way back down).
SetConfig tiny_config() {
  SetConfig cfg;
  cfg.capacity = 4;
  cfg.load_factor = 2.0;
  cfg.smr.retire_threshold = 8;
  cfg.smr.epoch_freq = 2;
  return cfg;
}

TEST(ResizableHashTable, GrowsFromUnderProvisionedStart) {
  auto s = make_kv("RHHT", "EBR", tiny_config());
  ASSERT_NE(s, nullptr);
  const uint64_t initial_buckets = s->resize_stats().buckets;
  for (uint64_t k = 0; k < 2000; ++k) EXPECT_TRUE(s->insert(k));
  const ResizeStats rs = s->resize_stats();
  EXPECT_GT(rs.grows, 0u) << "2000 keys into a capacity-4 table must grow";
  EXPECT_GT(rs.buckets, initial_buckets);
  for (uint64_t k = 0; k < 2000; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(s->get(k, &v)) << "key " << k << " lost across grows";
    EXPECT_EQ(v, k);
  }
  EXPECT_EQ(s->size_slow(), 2000u);
  s->detach_thread();
}

TEST(ResizableHashTable, ShrinksAfterSustainedDrain) {
  auto s = make_kv("RHHT", "EBR", tiny_config());
  ASSERT_NE(s, nullptr);
  for (uint64_t k = 0; k < 2000; ++k) s->insert(k);
  const uint64_t grown_buckets = s->resize_stats().buckets;
  ASSERT_GT(grown_buckets, 2u);
  // The drain itself ticks the update counter, so the underflow check
  // runs repeatedly while the population falls; the shrink policy wants
  // a sustained streak, which 2000 erases comfortably provide.
  for (uint64_t k = 0; k < 2000; ++k) EXPECT_TRUE(s->remove(k));
  const ResizeStats rs = s->resize_stats();
  EXPECT_GT(rs.shrinks, 0u) << "a fully drained table must shrink back";
  EXPECT_LT(rs.buckets, grown_buckets);
  EXPECT_EQ(s->size_slow(), 0u);
  // The table must still be fully usable after shrinking.
  EXPECT_TRUE(s->insert(42));
  EXPECT_TRUE(s->get(42, nullptr));
  s->detach_thread();
}

TEST(ResizableHashTable, GrowShrinkGrowOscillationKeepsMembershipExact) {
  // Dummy nodes installed during a grow are never removed; a later
  // shrink must leave them harmless and a re-grow must reuse them
  // without duplicating or losing items.
  auto s = make_kv("RHHT", "IBR", tiny_config());
  ASSERT_NE(s, nullptr);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 1024; ++k) ASSERT_TRUE(s->insert(k));
    EXPECT_EQ(s->size_slow(), 1024u);
    for (uint64_t k = 0; k < 1024; ++k) ASSERT_TRUE(s->remove(k));
    EXPECT_EQ(s->size_slow(), 0u);
  }
  const ResizeStats rs = s->resize_stats();
  EXPECT_GT(rs.grows, 0u);
  EXPECT_GT(rs.shrinks, 0u);
  s->detach_thread();
}

class RhhtDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(RhhtDifferential, MatchesStdMapThroughForcedGrowAndShrink) {
  // Single-threaded differential against std::map, driven through a
  // fill-heavy phase (forcing grows) then a drain-heavy phase (forcing
  // shrinks): every return value — insert/put outcome, remove hit, get
  // hit + value — must match the reference at every step, under every
  // scheme (descriptor retirement rides the scheme's own reclaim path).
  auto s = make_kv("RHHT", GetParam(), tiny_config());
  ASSERT_NE(s, nullptr);
  std::map<uint64_t, uint64_t> ref;
  runtime::Xoshiro256 rng(1234);
  for (int phase = 0; phase < 2; ++phase) {
    const uint64_t ins_pct = phase == 0 ? 70 : 10;
    for (int i = 0; i < 6000; ++i) {
      const uint64_t k = rng.next_below(512);
      const uint64_t dice = rng.next_below(100);
      if (dice < ins_pct) {
        EXPECT_EQ(s->insert(k), ref.emplace(k, k).second);
      } else if (dice < ins_pct + 15) {
        const uint64_t v = rng.next();
        const bool replaced = ref.count(k) > 0;
        EXPECT_EQ(s->put(k, v) == PutResult::kReplaced, replaced);
        ref[k] = v;
      } else if (dice < 85) {
        EXPECT_EQ(s->remove(k), ref.erase(k) > 0);
      } else {
        uint64_t v = 0;
        const bool hit = s->get(k, &v);
        const auto it = ref.find(k);
        ASSERT_EQ(hit, it != ref.end());
        if (hit) {
          EXPECT_EQ(v, it->second);
        }
      }
    }
  }
  EXPECT_EQ(s->size_slow(), ref.size());
  for (const auto& [k, v] : ref) {
    uint64_t got = 0;
    ASSERT_TRUE(s->get(k, &got));
    EXPECT_EQ(got, v);
  }
  // The fill phase over 512 keys from a capacity-4 start must have grown.
  EXPECT_GT(s->resize_stats().grows, 0u);
  s->detach_thread();
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, RhhtDifferential,
                         ::testing::ValuesIn(all_smr_names()),
                         [](const auto& info) { return info.param; });

TEST(ResizableHashTable, ConcurrentGrowStormKeepsAllInserts) {
  // Four threads insert disjoint key stripes while the table doubles
  // repeatedly under them: a lost insert here means a migration window
  // dropped a concurrently-published node.
  auto s = make_kv("RHHT", "EpochPOP", tiny_config());
  ASSERT_NE(s, nullptr);
  constexpr uint64_t kPerThread = 2048;
  test::run_threads(4, [&](int w) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      ASSERT_TRUE(s->insert(static_cast<uint64_t>(w) * kPerThread + i));
    }
    s->detach_thread();
  });
  EXPECT_EQ(s->size_slow(), 4 * kPerThread);
  for (uint64_t k = 0; k < 4 * kPerThread; ++k) {
    ASSERT_TRUE(s->get(k, nullptr)) << "key " << k << " lost in the grow storm";
  }
  EXPECT_GT(s->resize_stats().grows, 0u);
  s->detach_thread();
}

TEST(ResizableHashTable, ShardsResizeIndependentlyThroughServiceStats) {
  // Modulo routing concentrates a contiguous key range on known shards:
  // shard k holds keys with key % 4 == k, and only the shards that is
  // actually loaded should grow. The ServiceStats surface must carry the
  // per-shard resize counts the JSONL shard rows report.
  service::ShardedMapConfig cfg;
  cfg.shards = 4;
  cfg.hash = service::ShardHash::kModulo;
  cfg.set = tiny_config();
  auto m = service::ShardedMap::create("RHHT", "EBR", cfg);
  ASSERT_NE(m, nullptr);
  // Load shards 0 and 1 only (keys = 0,1 mod 4), ~1500 keys each: far
  // past the 64-key per-shard floor, so both must grow; 2 and 3 stay at
  // their initial shape.
  for (uint64_t i = 0; i < 1500; ++i) {
    ASSERT_TRUE(m->insert(4 * i));
    ASSERT_TRUE(m->insert(4 * i + 1));
  }
  const service::ServiceStats ss = m->service_stats();
  ASSERT_EQ(ss.shards.size(), 4u);
  EXPECT_GT(ss.shards[0].resizes, 0u);
  EXPECT_GT(ss.shards[1].resizes, 0u);
  EXPECT_EQ(ss.shards[2].resizes, 0u);
  EXPECT_EQ(ss.shards[3].resizes, 0u);
  EXPECT_GT(ss.shards[0].buckets_final, ss.shards[2].buckets_final);
  EXPECT_GT(ss.resizes_total, 0u);
  EXPECT_EQ(ss.resizes_total, m->resize_stats().resizes());
  m->detach_thread();
}

// A descriptor's bucket array is the tail of its own pool block: a grow
// allocates one block for the new table, and the displaced table frees
// as one block. Hazard pointers with retire_threshold 1 make every free
// deterministic: each retire runs a pass that frees exactly what no slot
// of this thread still names.
TEST(ResizableHashTable, GrowAllocatesAndFreesOneTableBlock) {
  smr::SmrConfig cfg;
  cfg.retire_threshold = 1;
  ResizableHashTable<smr::HpDomain> m(/*capacity=*/4, /*load_factor=*/2.0,
                                      cfg);
  auto& pool = runtime::PoolAllocator::instance();
  const uint64_t every = ResizableHashTable<smr::HpDomain>::kResizeCheckEvery;
  for (uint64_t k = 0; k + 1 < every; ++k) ASSERT_TRUE(m.insert(k));
  ASSERT_EQ(m.resize_stats().grows, 0u);
  // The resize check's update: its own node, then the new table. The old
  // table is still reserved by this operation, so nothing frees yet.
  const auto s0 = pool.stats();
  ASSERT_TRUE(m.insert(every - 1));
  const auto s1 = pool.stats();
  ASSERT_EQ(m.resize_stats().grows, 1u);
  EXPECT_EQ(s1.allocated_blocks - s0.allocated_blocks, 2u);
  EXPECT_EQ(s1.freed_blocks, s0.freed_blocks);
  // A replace allocates one node and retires the one it displaced, which
  // its own slots still reserve; the pass frees the old table alone.
  const uint64_t freed_nodes = m.domain().stats().freed;
  ASSERT_EQ(m.put(0, 1), PutResult::kReplaced);
  const auto s2 = pool.stats();
  EXPECT_EQ(m.domain().stats().freed - freed_nodes, 1u);
  EXPECT_EQ(s2.allocated_blocks - s1.allocated_blocks, 1u);
  EXPECT_EQ(s2.freed_blocks - s1.freed_blocks, 1u);
  m.domain().detach();
}

// A key k and k + 2^63 share their split-order key (so_regular's |1
// overwrites mix's bit 63) and, at every table size, their bucket: the
// list can tell them apart only by the second half of its (so, key)
// order. Each of the two keys is inserted, replaced, read and erased on
// its own while the table grows and then shrinks under them.
TEST(ResizableHashTable, SoKeyCollidingPairsStayDistinctAcrossGrowAndShrink) {
  constexpr uint64_t kHigh = 1ull << 63;
  constexpr uint64_t kPairs = 512;
  for (uint64_t k = 0; k < kPairs; ++k) {
    ASSERT_EQ(detail_rhht::so_regular(k), detail_rhht::so_regular(k + kHigh));
  }
  smr::SmrConfig cfg;
  cfg.retire_threshold = 8;
  ResizableHashTable<smr::EbrDomain> m(/*capacity=*/4, /*load_factor=*/2.0,
                                       cfg);
  const auto value = [&m](uint64_t k) {
    uint64_t v = 0;
    return m.get(k, &v) ? v : ~0ull;
  };
  for (uint64_t k = 0; k < kPairs; ++k) {
    ASSERT_TRUE(m.insert(k, k));
    ASSERT_FALSE(m.get(k + kHigh, nullptr)) << "pair " << k;
    ASSERT_TRUE(m.insert(k + kHigh, k + kHigh));
    ASSERT_FALSE(m.insert(k, 0));
  }
  EXPECT_GT(m.resize_stats().grows, 0u);
  EXPECT_EQ(m.size_slow(), 2 * kPairs);
  for (uint64_t k = 0; k < kPairs; ++k) {
    ASSERT_EQ(m.put(k, k + 1), PutResult::kReplaced);
    EXPECT_EQ(value(k + kHigh), k + kHigh) << "pair " << k;
    ASSERT_EQ(m.put(k + kHigh, k + 2), PutResult::kReplaced);
    EXPECT_EQ(value(k), k + 1) << "pair " << k;
  }
  for (uint64_t k = 0; k < kPairs; ++k) {
    ASSERT_TRUE(m.erase(k));
    EXPECT_FALSE(m.get(k, nullptr));
    EXPECT_EQ(value(k + kHigh), k + 2) << "pair " << k;
  }
  EXPECT_EQ(m.size_slow(), kPairs);
  for (uint64_t k = 0; k < kPairs; ++k) {
    ASSERT_TRUE(m.erase(k + kHigh));
    ASSERT_FALSE(m.erase(k + kHigh));
  }
  EXPECT_GT(m.resize_stats().shrinks, 0u);
  EXPECT_EQ(m.size_slow(), 0u);
  // High key first this time, through put.
  for (uint64_t k = 0; k < kPairs; ++k) {
    ASSERT_EQ(m.put(k + kHigh, 7), PutResult::kInserted);
    ASSERT_EQ(m.put(k, 8), PutResult::kInserted);
    EXPECT_EQ(value(k + kHigh), 7u);
    EXPECT_EQ(value(k), 8u);
  }
  EXPECT_EQ(m.size_slow(), 2 * kPairs);
  m.domain().detach();
}

// The resize policy's striped size estimate counts +1 per link and -1
// per successful mark, including put's rare mark / swap-fail / re-mark
// path. After a concurrent put/insert/erase storm over a shared key range
// it must equal the true population. Under NBR, neutralization restarts
// land in the middle of these updates.
template <class D>
smr::StatsSnapshot size_estimate_storm() {
  smr::SmrConfig cfg;
  cfg.retire_threshold = 8;
  ResizableHashTable<D> m(/*capacity=*/4, /*load_factor=*/2.0, cfg);
  test::run_threads(4, [&](int w) {
    runtime::Xoshiro256 rng(77 + static_cast<uint64_t>(w));
    for (int i = 0; i < 20000; ++i) {
      const uint64_t k = rng.next_below(256);
      const uint64_t dice = rng.next_below(3);
      if (dice == 0) {
        m.put(k, rng.next());
      } else if (dice == 1) {
        m.insert(k, k);
      } else {
        m.erase(k);
      }
    }
    m.domain().detach();
  });
  EXPECT_EQ(m.size_estimate(), static_cast<int64_t>(m.size_slow()));
  EXPECT_GT(m.resize_stats().grows, 0u);
  return m.domain().stats();
}

TEST(ResizableHashTable, SizeEstimateMatchesPopulationAfterStormEbr) {
  size_estimate_storm<smr::EbrDomain>();
}

TEST(ResizableHashTable, SizeEstimateMatchesPopulationAfterStormHazardPtrPop) {
  size_estimate_storm<core::HazardPtrPopDomain>();
}

TEST(ResizableHashTable, SizeEstimateMatchesPopulationAfterStormNbr) {
  EXPECT_GT(size_estimate_storm<smr::NbrDomain>().neutralized, 0u)
      << "no neutralization restart landed: NBR's path was not exercised";
}

}  // namespace
}  // namespace pop::ds
