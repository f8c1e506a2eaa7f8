// Per-thread domain state lives in runtime::TidRows: a row is allocated
// when its thread first touches the object, and every scan reads a tid
// without a row as one that never attached. These tests pin that a
// domain pays for the threads that use it and for no others, that
// scanners, reapers, handlers and teardown never allocate or touch a
// missing row, and that a recycled tid inherits its predecessor's row.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "core/pop_engine.hpp"
#include "ds/hash_table.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/thread_registry.hpp"
#include "runtime/tid_rows.hpp"
#include "smr/all.hpp"
#include "../support/test_util.hpp"

namespace pop::smr {
namespace {

using test::TNode;

// A domain is its row-pointer tables plus fixed fields; the rows
// themselves are allocated per attached thread.
constexpr std::size_t kDomainBound = 8 * 1024;
static_assert(sizeof(HpDomain) <= kDomainBound);
static_assert(sizeof(HpAsymDomain) <= kDomainBound);
static_assert(sizeof(HeDomain) <= kDomainBound);
static_assert(sizeof(EbrDomain) <= kDomainBound);
static_assert(sizeof(IbrDomain) <= kDomainBound);
static_assert(sizeof(NbrDomain) <= kDomainBound);
static_assert(sizeof(BrcDomain) <= kDomainBound);
static_assert(sizeof(NrDomain) <= kDomainBound);
static_assert(sizeof(core::HazardPtrPopDomain) <= kDomainBound);
static_assert(sizeof(core::HazardEraPopDomain) <= kDomainBound);
static_assert(sizeof(core::EpochPopDomain) <= kDomainBound);

uint64_t pool_live_blocks() {
  const auto s = runtime::PoolAllocator::instance().stats();
  return s.allocated_blocks - s.freed_blocks;
}

// Runs `n` threads that each bracket one operation on `d` and stay alive
// until all have, so each holds its own tid.
template <class D>
void attach_concurrently(D& d, int n) {
  std::latch all_in(n);
  test::run_threads(n, [&](int) {
    { typename D::Guard g(d); }
    all_in.arrive_and_wait();
  });
}

template <class D>
void expect_one_row_per_attached_thread(const char* name) {
  (void)runtime::my_tid();  // a registered tid that never touches `d`
  D d;
  EXPECT_EQ(d.thread_rows(), 0) << name;
  attach_concurrently(d, 3);
  EXPECT_EQ(d.thread_rows(), 3) << name;
  // Scanning and snapshotting read the rows; they allocate none.
  (void)d.stats();
  EXPECT_EQ(d.thread_rows(), 3) << name;
}

TEST(DomainRows, EveryDomainHasOneRowPerAttachedThread) {
  expect_one_row_per_attached_thread<HpDomain>("HP");
  expect_one_row_per_attached_thread<HpAsymDomain>("HPAsym");
  expect_one_row_per_attached_thread<HeDomain>("HE");
  expect_one_row_per_attached_thread<EbrDomain>("EBR");
  expect_one_row_per_attached_thread<IbrDomain>("IBR");
  expect_one_row_per_attached_thread<NbrDomain>("NBR");
  expect_one_row_per_attached_thread<BrcDomain>("BRC");
  expect_one_row_per_attached_thread<NrDomain>("NR");
  expect_one_row_per_attached_thread<core::HazardPtrPopDomain>(
      "HazardPtrPOP");
  expect_one_row_per_attached_thread<core::HazardEraPopDomain>(
      "HazardEraPOP");
  expect_one_row_per_attached_thread<core::EpochPopDomain>("EpochPOP");
}

// Reads the caller's retire list, which the public surface does not show.
struct ProbeHp : HpDomain {
  using HpDomain::HpDomain;
  uint64_t list_length(int tid) { return core_.retire_list(tid).length(); }
  std::size_t scan_words(int tid) {
    return core_.scan_scratch(tid).capacity();
  }
};

TEST(DomainRows, RecycledTidReusesItsRowAndKeepsItsRetireList) {
  SmrConfig cfg;
  cfg.retire_threshold = 1u << 20;  // no pass: the list only grows
  const uint64_t live_before = pool_live_blocks();
  {
    ProbeHp d(cfg);
    int first_tid = -1;
    std::thread([&] {
      first_tid = runtime::my_tid();
      ProbeHp::Guard g(d);
      for (int i = 0; i < 5; ++i) d.retire(d.create<TNode>(i));
    }).join();  // exits without detaching: its list stays in its row
    ASSERT_EQ(d.thread_rows(), 1);
    std::thread([&] {
      const int tid = runtime::my_tid();
      ASSERT_EQ(tid, first_tid) << "the registry hands out the lowest free tid";
      { ProbeHp::Guard g(d); }  // takes the slot over from the departed owner
      EXPECT_EQ(d.thread_rows(), 1);
      EXPECT_EQ(d.list_length(tid), 5u);
      ProbeHp::Guard g(d);
      d.retire(d.create<TNode>(9));
      EXPECT_EQ(d.list_length(tid), 6u);
    }).join();
    EXPECT_EQ(d.stats().retired, 6u);
    EXPECT_EQ(d.stats().freed, 0u);
  }  // teardown drains the one row's list
  EXPECT_EQ(pool_live_blocks(), live_before);
}

TEST(DomainRows, TidRowsRecycleAndAlign) {
  const int self = runtime::my_tid();  // registered first: not the thread's
  runtime::TidRows<char> bytes;
  runtime::TidRows<std::atomic<uint64_t>> wide(13);  // 104 B -> one line
  int tid = -1;
  char* row = nullptr;
  std::thread([&] {
    tid = runtime::my_tid();
    row = &bytes.get(tid);
    *row = 'x';
    (&wide.get(tid))[12].store(7, std::memory_order_relaxed);
  }).join();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(row) % runtime::kCacheLine, 0u);
  EXPECT_EQ(bytes.find(tid), row);
  std::thread([&] {
    ASSERT_EQ(runtime::my_tid(), tid);
    EXPECT_EQ(&bytes.get(tid), row) << "a recycled tid gets the same row";
    EXPECT_EQ(bytes.get(tid), 'x');
    EXPECT_EQ((&wide.get(tid))[12].load(std::memory_order_relaxed), 7u);
  }).join();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(wide.find(tid)) % runtime::kCacheLine,
            0u);
  EXPECT_EQ(bytes.find(self), nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(&bytes.get(self)) % runtime::kCacheLine,
            0u);
  EXPECT_EQ(bytes.count(), 2);
  EXPECT_EQ(wide.count(), 1);
}

// Registered threads that never touch the domain raise the registry's
// max_tid, so every scan below walks tids that have no row.
class Bystanders {
 public:
  explicit Bystanders(int n) : ready_(n + 1) {
    for (int i = 0; i < n; ++i) {
      ts_.emplace_back([this] {
        (void)runtime::my_tid();
        ready_.arrive_and_wait();
        while (!done_.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      });
    }
    ready_.arrive_and_wait();
  }
  ~Bystanders() {
    done_.store(true, std::memory_order_release);
    for (auto& t : ts_) t.join();
  }

 private:
  std::latch ready_;
  std::atomic<bool> done_{false};
  std::vector<std::thread> ts_;
};

template <class D>
void expect_scans_skip_missing_rows(const char* name) {
  SmrConfig cfg;
  cfg.retire_threshold = 1;  // every retire runs the pass (and its reap)
  cfg.epoch_freq = 1;        // and every operation moves the epoch
  D d(cfg);
  Bystanders idle(3);
  // An attached thread that exits without detaching: the reaper's work.
  std::thread([&] { typename D::Guard g(d); }).join();
  for (int i = 0; i < 8; ++i) {
    typename D::Guard g(d);
    d.retire(d.template create<TNode>(i));
  }
  const StatsSnapshot s = d.stats();
  EXPECT_EQ(d.thread_rows(), 2) << name << ": a scan allocated a row";
  EXPECT_EQ(s.retired, 8u) << name;
  // Missing rows pin nothing: every node but the last few is freed.
  EXPECT_GE(s.freed, 6u) << name;
  EXPECT_EQ(s.tids_reaped, 1u) << name << ": the departed owner is reaped";
}

TEST(DomainRows, ReapAndStatsSkipRowsNeverAllocated) {
  expect_scans_skip_missing_rows<HpDomain>("HP");
  expect_scans_skip_missing_rows<EbrDomain>("EBR");
  expect_scans_skip_missing_rows<IbrDomain>("IBR");
  expect_scans_skip_missing_rows<core::HazardPtrPopDomain>("HazardPtrPOP");
  expect_scans_skip_missing_rows<core::EpochPopDomain>("EpochPOP");
}

// A reservation scan's buffer holds (max_tid() + 1) * num_slots words and
// grows when the registry hands out a higher tid.
TEST(DomainRows, ScanBufferFollowsTheRegistryHighWaterMark) {
  SmrConfig cfg;
  cfg.retire_threshold = 1;  // every retire scans
  cfg.num_slots = 4;
  ProbeHp d(cfg);
  const int self = runtime::my_tid();
  auto& reg = runtime::ThreadRegistry::instance();
  {
    ProbeHp::Guard g(d);
    d.retire(d.create<TNode>(1));
  }
  const int hi = reg.max_tid();
  EXPECT_EQ(d.scan_words(self), static_cast<std::size_t>(hi + 1) * 4);
  EXPECT_LT(d.scan_words(self),
            static_cast<std::size_t>(runtime::kMaxThreads) * kMaxSlots);
  Bystanders more(hi + 2);  // at least one tid above the old high water
  ASSERT_GT(reg.max_tid(), hi);
  {
    ProbeHp::Guard g(d);
    d.retire(d.create<TNode>(2));
  }
  EXPECT_EQ(d.scan_words(self),
            static_cast<std::size_t>(reg.max_tid() + 1) * 4);
  EXPECT_EQ(d.stats().freed, 2u);
}

// IBR ticks its epoch on every allocation, and a table's constructor
// allocates its bucket sentinels outside any operation: the first touch
// of the announcement row is an allocation, not an operation.
TEST(DomainRows, IbrHashTableBuildsOnAFreshThread) {
  std::thread([] {
    ds::HashTable<IbrDomain> t(64);
    EXPECT_EQ(t.domain().thread_rows(), 0) << "no operation ran yet";
    EXPECT_TRUE(t.insert(7, 70));
    uint64_t v = 0;
    EXPECT_TRUE(t.get(7, &v));
    EXPECT_EQ(v, 70u);
    EXPECT_TRUE(t.erase(7));
    EXPECT_EQ(t.domain().thread_rows(), 1);
  }).join();
}

// The signal handler notifies every engine of the receiving thread; an
// engine with no row for that tid returns without publishing and without
// allocating one.
TEST(DomainRows, PingHandlerOfAnEngineWithoutARowReturns) {
  core::PopEngine a(4);
  core::PopEngine b(4);
  std::atomic<bool> reserved{false}, release{false};
  std::atomic<int> reader{-1};
  std::thread t([&] {
    const int tid = runtime::my_tid();
    a.attach(tid);
    a.local_slot(tid, 0).store(0x1230, std::memory_order_relaxed);
    reader.store(tid);
    b.on_ping(tid);  // what the handler runs for b on this thread
    reserved.store(true);
    while (!release.load()) std::this_thread::yield();
    a.detach(tid);
  });
  while (!reserved.load()) std::this_thread::yield();
  EXPECT_EQ(b.thread_rows(), 0);
  EXPECT_EQ(b.publish_count(reader.load()), 0u);
  EXPECT_EQ(b.pings_received(reader.load()), 0u);

  const int self = runtime::my_tid();
  b.attach(self);
  const auto hs = b.ping_all_and_wait(self);  // no other b thread to wait for
  EXPECT_TRUE(hs.complete());
  EXPECT_EQ(hs.sent, 0);
  a.attach(self);
  EXPECT_TRUE(a.ping_all_and_wait(self).complete());
  ScanBuffer buf;
  const Reservations shared = a.collect_shared(buf);
  EXPECT_NE(std::find(shared.v, shared.v + shared.n, 0x1230u),
            shared.v + shared.n)
      << "the reader's engine published on the real ping";
  EXPECT_EQ(b.thread_rows(), 1);
  release.store(true);
  t.join();
  a.detach(self);
  b.detach(self);
}

// Teardown drains the retire lists of the rows that exist and frees the
// rows; under ASan with leak detection a row left behind is reported.
TEST(DomainRows, TeardownDrainsOnlyExistingRows) {
  SmrConfig cfg;
  cfg.retire_threshold = 1u << 20;
  const uint64_t live_before = pool_live_blocks();
  {
    core::EpochPopDomain d(cfg);
    Bystanders idle(2);
    std::latch all_in(2);
    test::run_threads(2, [&](int w) {
      for (int i = 0; i < 10; ++i) {
        core::EpochPopDomain::Guard g(d);
        d.retire(d.create<TNode>(w * 100 + i));
      }
      all_in.arrive_and_wait();
    });
    EXPECT_EQ(d.thread_rows(), 2);
    EXPECT_EQ(d.stats().retired, 20u);
    EXPECT_GT(pool_live_blocks(), live_before);
  }
  EXPECT_EQ(pool_live_blocks(), live_before);
}

}  // namespace
}  // namespace pop::smr
