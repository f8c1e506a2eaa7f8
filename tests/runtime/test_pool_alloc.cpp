#include "runtime/pool_alloc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "../support/test_util.hpp"

namespace pop::runtime {
namespace {

TEST(PoolAlloc, AllocateReturnsWritableMemory) {
  void* p = pool_alloc(64);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, 64);
  pool_free(p);
}

TEST(PoolAlloc, SameSizeClassReusesBlocks) {
  void* a = pool_alloc(48);
  pool_free(a);
  void* b = pool_alloc(48);  // LIFO free list: should hand back `a`
  EXPECT_EQ(a, b);
  pool_free(b);
}

TEST(PoolAlloc, DistinctLiveBlocksDoNotOverlap) {
  std::vector<char*> blocks;
  for (int i = 0; i < 100; ++i) {
    blocks.push_back(static_cast<char*>(pool_alloc(96)));
    std::memset(blocks.back(), i, 96);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(blocks[i][0]), i);
    EXPECT_EQ(static_cast<unsigned char>(blocks[i][95]), i);
  }
  for (char* b : blocks) pool_free(b);
}

TEST(PoolAlloc, OversizedAllocationsFallThrough) {
  void* p = pool_alloc(PoolAllocator::kMaxBlockSize + 1000);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, PoolAllocator::kMaxBlockSize + 1000);
  pool_free(p);
}

TEST(PoolAlloc, BlockFreedOnAnotherThreadIsReusedThere) {
  void* p = pool_alloc(256);
  void* q = nullptr;
  test::run_threads(1, [&](int) {
    pool_free(p);  // lands on this thread's list, not the allocator's
    q = pool_alloc(256);
    pool_free(q);
  });
  EXPECT_EQ(p, q);
}

TEST(PoolAlloc, CrossThreadFreesServeTheFreeingThreadWithoutNewSlabs) {
  constexpr int kBlocks = 1000;  // several chunks: some go via the depot
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool_alloc(96));
  const auto before = PoolAllocator::instance().stats();
  std::vector<void*> again;
  uint64_t slabs_after = 0;
  test::run_threads(1, [&](int) {
    for (void* p : blocks) pool_free(p);
    for (int i = 0; i < kBlocks; ++i) again.push_back(pool_alloc(96));
    slabs_after = PoolAllocator::instance().stats().slabs;
    for (void* p : again) pool_free(p);
  });
  EXPECT_EQ(slabs_after, before.slabs);
  std::sort(blocks.begin(), blocks.end());
  std::sort(again.begin(), again.end());
  EXPECT_EQ(again, blocks);
}

TEST(PoolAlloc, ExitedThreadsFreesServeOtherThreads) {
  constexpr int kBlocks = 1000;
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool_alloc(160));
  test::run_threads(1, [&](int) {
    for (void* p : blocks) pool_free(p);
  });  // the exiting thread hands its lists to the depot
  const auto before = PoolAllocator::instance().stats();
  std::vector<void*> again;
  uint64_t slabs_after = 0;
  test::run_threads(1, [&](int) {
    for (int i = 0; i < kBlocks; ++i) again.push_back(pool_alloc(160));
    slabs_after = PoolAllocator::instance().stats().slabs;
    for (void* p : again) pool_free(p);
  });
  EXPECT_EQ(slabs_after, before.slabs);
  std::sort(blocks.begin(), blocks.end());
  std::sort(again.begin(), again.end());
  EXPECT_EQ(again, blocks);
}

TEST(PoolAlloc, StatsCountAllocAndFree) {
  const auto before = PoolAllocator::instance().stats();
  void* p = pool_alloc(64);
  void* q = pool_alloc(64);
  pool_free(p);
  pool_free(q);
  const auto after = PoolAllocator::instance().stats();
  EXPECT_EQ(after.allocated_blocks - before.allocated_blocks, 2u);
  EXPECT_EQ(after.freed_blocks - before.freed_blocks, 2u);
}

TEST(PoolAlloc, ConcurrentAllocFreeStress) {
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  test::run_threads(kThreads, [&](int t) {
    std::vector<void*> mine;
    for (int i = 0; i < kIters; ++i) {
      void* p = pool_alloc(32 + 16 * (i % 4));
      std::memset(p, t, 32);
      mine.push_back(p);
      if (mine.size() > 64) {
        pool_free(mine.front());
        mine.erase(mine.begin());
      }
    }
    for (void* p : mine) pool_free(p);
  });
  SUCCEED();
}

TEST(PoolAlloc, ProducerConsumerKeepsSlabsBounded) {
  // One producer allocates, one consumer frees: every block crosses
  // threads, as a reclaimer's frees do. The consumer's surplus must come
  // back to the producer through the depot, so the pool stays at a few
  // chunks in flight however many blocks pass.
  constexpr int kBlocks = 100000;
  const auto before = PoolAllocator::instance().stats();
  std::atomic<void*> channel{nullptr};
  std::thread consumer([&] {
    for (int freed = 0; freed < kBlocks;) {
      void* p = channel.exchange(nullptr, std::memory_order_acq_rel);
      if (p != nullptr) {
        pool_free(p);
        ++freed;
      }
    }
  });
  for (int sent = 0; sent < kBlocks; ++sent) {
    void* p = pool_alloc(128);
    void* expected = nullptr;
    while (!channel.compare_exchange_weak(expected, p,
                                          std::memory_order_acq_rel)) {
      expected = nullptr;
      std::this_thread::yield();
    }
  }
  consumer.join();
  const auto after = PoolAllocator::instance().stats();
  EXPECT_LE(after.slabs - before.slabs, 2u);
  EXPECT_EQ(after.allocated_blocks - before.allocated_blocks,
            after.freed_blocks - before.freed_blocks);
}

TEST(PoolAlloc, FreeBatchReturnsBlocksForReuse) {
  constexpr int kBlocks = 64;
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool_alloc(48));
  {
    PoolAllocator::FreeBatch batch;
    for (void* p : blocks) batch.add(p);
    EXPECT_EQ(batch.blocks_added(), static_cast<uint64_t>(kBlocks));
  }  // flush on destruction: local splice onto this thread's free list
  // Every freed block must be reusable by the owning thread.
  std::vector<void*> again;
  for (int i = 0; i < kBlocks; ++i) again.push_back(pool_alloc(48));
  for (void* p : again) {
    EXPECT_NE(std::find(blocks.begin(), blocks.end(), p), blocks.end());
  }
  for (void* p : again) pool_free(p);
}

TEST(PoolAlloc, FreeBatchUnderAChunkPerClassStaysPrivate) {
  std::vector<void*> blocks;
  for (int i = 0; i < 40; ++i) blocks.push_back(pool_alloc(32 + 48 * (i % 4)));
  test::run_threads(1, [&](int) {  // a fresh thread: empty private lists
    const auto before = PoolAllocator::instance().stats();
    {
      PoolAllocator::FreeBatch batch;
      for (void* p : blocks) batch.add(p);
    }
    const auto after = PoolAllocator::instance().stats();
    EXPECT_EQ(after.freed_blocks - before.freed_blocks, 40u);
    // Four classes, ten blocks each: nothing reached the depot.
    EXPECT_EQ(after.remote_frees - before.remote_frees, 0u);
  });
}

TEST(PoolAlloc, DepotCountersCountBlocksAndTransfersSeparately) {
  // A thread's list for one class holds at most two chunks; each further
  // full chunk goes to the depot, and what is left goes at thread exit.
  constexpr int kBlocks = 4 * detail::kPoolChunkBlocks;
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool_alloc(1000));
  const auto before = PoolAllocator::instance().stats();
  uint64_t frees_live = 0, splices_live = 0;
  test::run_threads(1, [&](int) {
    for (void* p : blocks) pool_free(p);
    const auto mid = PoolAllocator::instance().stats();
    frees_live = mid.remote_frees - before.remote_frees;
    splices_live = mid.remote_splices - before.remote_splices;
  });
  const auto after = PoolAllocator::instance().stats();
  EXPECT_EQ(frees_live, 3u * detail::kPoolChunkBlocks);
  EXPECT_EQ(splices_live, 3u);
  EXPECT_EQ(after.remote_frees - before.remote_frees,
            static_cast<uint64_t>(kBlocks));
  EXPECT_EQ(after.remote_splices - before.remote_splices, 4u);
}

TEST(PoolAlloc, FreeBatchHandsWholeChunksOn) {
  constexpr int kBlocks = 3 * detail::kPoolChunkBlocks + 5;
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool_alloc(2000));
  const auto before = PoolAllocator::instance().stats();
  test::run_threads(1, [&](int) {
    PoolAllocator::FreeBatch batch;
    for (void* p : blocks) batch.add(p);
  });
  const auto after = PoolAllocator::instance().stats();
  // remote_frees counts blocks, remote_splices the chunks that carried
  // them: two full chunks passed the private bound during the batch, and
  // the exiting thread handed over its spare and a 5-block remainder.
  EXPECT_EQ(after.remote_frees - before.remote_frees,
            static_cast<uint64_t>(kBlocks));
  EXPECT_EQ(after.remote_splices - before.remote_splices, 4u);
  std::vector<void*> again;
  for (int i = 0; i < kBlocks; ++i) again.push_back(pool_alloc(2000));
  EXPECT_EQ(PoolAllocator::instance().stats().slabs, after.slabs);
  for (void* p : again) {
    EXPECT_NE(std::find(blocks.begin(), blocks.end(), p), blocks.end());
  }
  for (void* p : again) pool_free(p);
}

// Frees `blocks` alternately through deallocate() and a FreeBatch.
void free_both_ways(const std::vector<void*>& blocks) {
  PoolAllocator::FreeBatch batch;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (i % 2 == 0) {
      pool_free(blocks[i]);
    } else {
      batch.add(blocks[i]);
    }
  }
}

TEST(PoolAlloc, SizeClassesFitEveryRequest) {
  int prev = 0;
  for (std::size_t size = 1; size <= PoolAllocator::kMaxBlockSize; ++size) {
    const int c = detail::pool_class_of(size);
    const std::size_t cap = detail::pool_class_bytes(c);
    ASSERT_LT(c, detail::kPoolNumClasses) << size;
    ASSERT_GE(cap, size) << size;
    ASSERT_EQ(cap % 16, 0u) << size;  // keeps payloads 16-byte aligned
    ASSERT_GE(c, prev) << size;
    if (c > 0) {
      ASSERT_LT(detail::pool_class_bytes(c - 1), size) << size;
    }
    if (size >= 128) {
      ASSERT_LE(4 * (cap - size), size) << size;  // wastes at most 25%
    }
    prev = c;
  }
  // (The tree and list node headers static_assert that their nodes land
  // in a class within 16 B of their size.)

  // A block's slab header, found by masking its address, names its class
  // and tracks its live/free state in every mode, whichever path frees it.
  ASSERT_FALSE(PoolAllocator::poison_enabled());
  std::vector<void*> blocks;
  for (int c = 0; c < detail::kPoolNumClasses; ++c) {
    const std::size_t cap = detail::pool_class_bytes(c);
    const std::size_t smallest =
        c == 0 ? 1 : detail::pool_class_bytes(c - 1) + 1;
    for (std::size_t size : {smallest, cap}) {
      void* p = pool_alloc(size);
      EXPECT_EQ(detail::pool_slab_of(p)->size_class, c) << size;
      EXPECT_FALSE(PoolAllocator::is_poisoned(p)) << size;
      std::memset(p, 0x5A, cap);
      blocks.push_back(p);
    }
  }
  free_both_ways(blocks);
  for (void* p : blocks) EXPECT_TRUE(PoolAllocator::is_poisoned(p));
}

TEST(PoolAlloc, BlocksAreExactlyClassSized) {
  // On a fresh thread, take recycled blocks until the pool carves a new
  // slab: from its first block on, consecutive carves are exactly one
  // class size apart (no per-block header), and the slab holds as many
  // blocks as fit behind its header.
  test::run_threads(1, [](int) {
    for (int c = 0; c < detail::kPoolNumClasses; ++c) {
      const std::size_t bytes = detail::pool_class_bytes(c);
      if (bytes > 128) break;
      std::vector<void*> blocks;
      const uint64_t slabs = PoolAllocator::instance().stats().slabs;
      do {
        blocks.push_back(pool_alloc(bytes));
      } while (PoolAllocator::instance().stats().slabs == slabs);
      char* prev = static_cast<char*>(blocks.back());
      detail::PoolSlab* slab = detail::pool_slab_of(prev);
      const std::size_t header = prev - reinterpret_cast<char*>(slab);
      std::size_t carved = 1;
      for (;;) {
        char* p = static_cast<char*>(pool_alloc(bytes));
        blocks.push_back(p);
        if (detail::pool_slab_of(p) != slab) break;
        ASSERT_EQ(p - prev, static_cast<std::ptrdiff_t>(bytes)) << bytes;
        prev = p;
        ++carved;
      }
      EXPECT_EQ(carved, (detail::kPoolSlabBytes - header) / bytes) << bytes;
      // The header is the slab fields and one state byte per block, plus
      // less than a block of rounding.
      EXPECT_GE(header, sizeof(detail::PoolSlab) + carved) << bytes;
      EXPECT_LT(header, sizeof(detail::PoolSlab) + carved + 16 + bytes)
          << bytes;
      EXPECT_EQ(slab->size_class, c);
      if (bytes == 64) {
        EXPECT_EQ(carved, (256 * 1024 - header) / 64);
      }
      free_both_ways(blocks);
    }
  });
}

TEST(PoolAlloc, FreeBatchOversizedFallsThrough) {
  // An oversized block, smaller or larger than a slab, is a one-block
  // slab of its own: the same mask finds its header.
  for (std::size_t size : {PoolAllocator::kMaxBlockSize + 1,
                           std::size_t{1} << 20}) {
    std::vector<void*> blocks;
    for (int i = 0; i < 2; ++i) {
      void* p = pool_alloc(size);
      detail::PoolSlab* slab = detail::pool_slab_of(p);
      EXPECT_EQ(slab->size_class, detail::kPoolOversized) << size;
      EXPECT_LT(static_cast<char*>(p) - reinterpret_cast<char*>(slab), 64)
          << size;
      std::memset(p, 0x5A, size);
      blocks.push_back(p);
    }
    const auto before = PoolAllocator::instance().stats();
    free_both_ways(blocks);
    const auto after = PoolAllocator::instance().stats();
    EXPECT_EQ(after.freed_blocks - before.freed_blocks, 2u) << size;
  }
}

TEST(PoolAlloc, RoundRobinHandoffCyclesChunksThroughTheDepot) {
  // Four threads each allocate a burst of three chunks of one class, fill
  // every payload, and hand the burst to the next thread, which checks
  // every byte, overwrites it and frees it. Three chunks overflow the
  // freer's private list, so chunks enter and leave the depot every
  // round while their blocks' payloads are written by each new owner: a
  // depot link stored in a block would race with those writes.
  constexpr int kThreads = 4;
  constexpr int kRounds = 300;
  constexpr std::size_t kBurst = 3 * detail::kPoolChunkBlocks;
  constexpr std::size_t kSizes[] = {48, 64, 96};
  struct Mailbox {
    std::mutex m;
    std::condition_variable cv;
    std::vector<std::vector<char*>> bursts;
  };
  Mailbox box[kThreads];
  std::atomic<uint64_t> bad_bytes{0};
  const auto before = PoolAllocator::instance().stats();
  test::run_threads(kThreads, [&](int t) {
    for (int r = 0; r < kRounds; ++r) {
      const std::size_t size = kSizes[(t + r) % 3];
      const auto fill = static_cast<unsigned char>(t * kRounds + r);
      std::vector<char*> burst(kBurst);
      for (char*& p : burst) {
        p = static_cast<char*>(pool_alloc(size));
        std::memset(p, fill, size);
      }
      Mailbox& next = box[(t + 1) % kThreads];
      {
        std::lock_guard<std::mutex> lock(next.m);
        next.bursts.push_back(std::move(burst));
      }
      next.cv.notify_one();

      std::vector<char*> got;
      {
        std::unique_lock<std::mutex> lock(box[t].m);
        box[t].cv.wait(lock, [&] { return !box[t].bursts.empty(); });
        got = std::move(box[t].bursts.front());
        box[t].bursts.erase(box[t].bursts.begin());
      }
      const int from = (t + kThreads - 1) % kThreads;
      const std::size_t got_size = kSizes[(from + r) % 3];
      const auto want = static_cast<unsigned char>(from * kRounds + r);
      uint64_t bad = 0;
      for (char* p : got) {
        for (std::size_t i = 0; i < got_size; ++i) {
          bad += static_cast<unsigned char>(p[i]) != want;
        }
        std::memset(p, 0x5A, got_size);
      }
      bad_bytes.fetch_add(bad, std::memory_order_relaxed);
      free_both_ways({got.begin(), got.end()});
    }
  });
  const auto after = PoolAllocator::instance().stats();
  EXPECT_EQ(bad_bytes.load(), 0u);
  // Every freer pushes two chunks a round; the allocators take them back.
  EXPECT_GE(after.remote_splices - before.remote_splices,
            uint64_t{2} * kThreads * kRounds);
  EXPECT_EQ(after.allocated_blocks - before.allocated_blocks,
            after.freed_blocks - before.freed_blocks);
  // 460,800 blocks passed; recycled through the depot they fit a few
  // slabs per thread and class (about 120 if nothing came back).
  EXPECT_LE(after.slabs - before.slabs, uint64_t{kThreads} * 3);
}

using PoolAllocDeathTest = ::testing::Test;

TEST(PoolAllocDeathTest, PoisonModeCatchesDoubleFree) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PoolAllocator::set_poison(true);
        void* p = pool_alloc(64);
        pool_free(p);
        pool_free(p);  // double free: must abort
      },
      "double free");
}

TEST(PoolAllocDeathTest, PoisonModeCatchesDoubleFreeViaBatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PoolAllocator::set_poison(true);
        void* p = pool_alloc(64);
        pool_free(p);
        PoolAllocator::FreeBatch batch;
        batch.add(p);  // double free through the batch path: must abort
      },
      "double free");
}

TEST(PoolAllocDeathTest, PoisonModeCatchesDoubleFreeThroughDepot) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PoolAllocator::set_poison(true);
        void* p = pool_alloc(64);
        // Freed on a thread that exits: the block goes to the depot, and
        // this thread's next allocation of the class takes it back.
        std::thread([p] { pool_free(p); }).join();
        void* q = pool_alloc(64);
        if (q != p) std::abort();  // would die without the expected text
        pool_free(q);
        pool_free(q);  // double free: must abort
      },
      "double free");
}

TEST(PoolAllocDeathTest, PoisonModeFillsBatchFreedPayload) {
  // The batched path must preserve UAF detection: canary fill on add(),
  // poisoned-state query, and clean reuse.
  PoolAllocator::set_poison(true);
  char* p = static_cast<char*>(pool_alloc(64));
  std::memset(p, 0x22, 64);
  {
    PoolAllocator::FreeBatch batch;
    batch.add(p);
    // Poisoned as soon as it enters the batch, before the splice.
    EXPECT_TRUE(PoolAllocator::is_poisoned(p));
  }
  bool poisoned = true;
  for (int i = 8; i < 64; ++i) {
    poisoned = poisoned &&
               (static_cast<unsigned char>(p[i]) == PoolAllocator::kPoisonByte);
  }
  EXPECT_TRUE(poisoned);
  void* q = pool_alloc(64);
  EXPECT_EQ(q, p);
  EXPECT_FALSE(PoolAllocator::is_poisoned(q));
  pool_free(q);
  PoolAllocator::set_poison(false);
}

TEST(PoolAllocDeathTest, PoisonEnableAfterBatchFreeIsSafe) {
  // Blocks batch-freed before poison mode was enabled must still carry
  // free magic: reuse after enabling must not trip the corruption check.
  std::vector<void*> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(pool_alloc(96));
  {
    PoolAllocator::FreeBatch batch;
    for (void* p : blocks) batch.add(p);
  }
  PoolAllocator::set_poison(true);
  std::vector<void*> again;
  for (int i = 0; i < 16; ++i) again.push_back(pool_alloc(96));
  for (void* p : again) pool_free(p);
  PoolAllocator::set_poison(false);
  SUCCEED();
}

TEST(PoolAllocDeathTest, PoisonModeFillsFreedPayload) {
  PoolAllocator::set_poison(true);
  char* p = static_cast<char*>(pool_alloc(64));
  std::memset(p, 0x11, 64);
  pool_free(p);
  // The payload beyond the free-list link must carry the canary.
  bool poisoned = true;
  for (int i = 8; i < 64; ++i) {
    poisoned = poisoned &&
               (static_cast<unsigned char>(p[i]) == PoolAllocator::kPoisonByte);
  }
  EXPECT_TRUE(poisoned);
  EXPECT_TRUE(PoolAllocator::is_poisoned(p));
  void* q = pool_alloc(64);  // reuse is legal again
  EXPECT_EQ(q, p);
  EXPECT_FALSE(PoolAllocator::is_poisoned(q));
  pool_free(q);
  PoolAllocator::set_poison(false);
}

}  // namespace
}  // namespace pop::runtime
