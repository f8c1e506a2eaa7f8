// Tests of the publish-on-ping handshake machinery (paper Algorithm 2):
// private reservations stay private until a ping, the publish counter
// advances exactly when the handler runs, and ping_all_and_wait returns
// only after every attached thread has published.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/pop_engine.hpp"
#include "runtime/handshake.hpp"
#include "runtime/thread_registry.hpp"
#include "../support/test_util.hpp"

namespace pop::core {
namespace {

TEST(PopEngine, LocalReservationIsPrivateUntilPing) {
  PopEngine e(4);
  std::atomic<bool> reserved{false}, release{false};
  std::thread reader([&] {
    const int tid = runtime::my_tid();
    e.attach(tid);
    e.local_slot(tid, 0).store(0xABCD0, std::memory_order_relaxed);
    reserved.store(true);
    while (!release.load()) std::this_thread::yield();
    e.detach(tid);
  });
  while (!reserved.load()) std::this_thread::yield();

  smr::ScanBuffer buf;
  smr::Reservations shared = e.collect_shared(buf);
  bool found = false;
  for (int i = 0; i < shared.n; ++i) found = found || shared.v[i] == 0xABCD0;
  EXPECT_FALSE(found) << "reservation leaked to shared slots without a ping";

  const int self = runtime::my_tid();
  e.attach(self);
  e.ping_all_and_wait(self);

  shared = e.collect_shared(buf);
  found = false;
  for (int i = 0; i < shared.n; ++i) found = found || shared.v[i] == 0xABCD0;
  EXPECT_TRUE(found) << "reservation not published after the handshake";

  release.store(true);
  reader.join();
  e.detach(self);
}

TEST(PopEngine, PublishCounterAdvancesOnPing) {
  PopEngine e(4);
  std::atomic<bool> up{false}, release{false};
  std::atomic<int> reader_tid{-1};
  std::thread reader([&] {
    const int tid = runtime::my_tid();
    e.attach(tid);
    reader_tid.store(tid);
    up.store(true);
    while (!release.load()) std::this_thread::yield();
    e.detach(tid);
  });
  while (!up.load()) std::this_thread::yield();
  const uint64_t before = e.publish_count(reader_tid.load());
  const int self = runtime::my_tid();
  e.attach(self);
  e.ping_all_and_wait(self);
  EXPECT_GT(e.publish_count(reader_tid.load()), before);
  release.store(true);
  reader.join();
  e.detach(self);
}

TEST(PopEngine, HandshakeCompletesWithNoOtherThreads) {
  PopEngine e(4);
  const int self = runtime::my_tid();
  e.attach(self);
  e.local_slot(self, 0).store(0x1234560, std::memory_order_relaxed);
  e.ping_all_and_wait(self);  // must self-publish and return promptly
  smr::ScanBuffer buf;
  const smr::Reservations shared = e.collect_shared(buf);
  bool found = false;
  for (int i = 0; i < shared.n; ++i) found = found || shared.v[i] == 0x1234560;
  EXPECT_TRUE(found);
  e.detach(self);
}

TEST(PopEngine, DetachedThreadDoesNotBlockHandshake) {
  PopEngine e(4);
  // Reader attaches and then detaches before the reclaimer pings.
  test::run_threads(1, [&](int) {
    const int tid = runtime::my_tid();
    e.attach(tid);
    e.local_slot(tid, 0).store(0xF00D0, std::memory_order_relaxed);
    e.detach(tid);
  });
  const int self = runtime::my_tid();
  e.attach(self);
  e.ping_all_and_wait(self);  // must not spin on the departed thread
  smr::ScanBuffer buf;
  const smr::Reservations shared = e.collect_shared(buf);
  for (int i = 0; i < shared.n; ++i) EXPECT_NE(shared.v[i], 0xF00D0u);
  e.detach(self);
}

TEST(PopEngine, ClearLocalDropsReservations) {
  PopEngine e(4);
  const int self = runtime::my_tid();
  e.attach(self);
  e.local_slot(self, 0).store(0xBEEF0, std::memory_order_relaxed);
  e.clear_local(self);
  e.ping_all_and_wait(self);
  smr::ScanBuffer buf;
  const smr::Reservations shared = e.collect_shared(buf);
  for (int i = 0; i < shared.n; ++i) EXPECT_NE(shared.v[i], 0xBEEF0u);
  e.detach(self);
}

TEST(PopEngine, ConcurrentReclaimersCoalesce) {
  PopEngine e(4);
  std::atomic<bool> release{false};
  std::atomic<int> up{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      const int tid = runtime::my_tid();
      e.attach(tid);
      e.local_slot(tid, 0).store(0x5150 + 16 * static_cast<uintptr_t>(tid),
                                 std::memory_order_relaxed);
      up.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      e.detach(tid);
    });
  }
  while (up.load() < 3) std::this_thread::yield();
  // Two reclaimers handshake simultaneously; both must terminate.
  test::run_threads(2, [&](int) {
    const int tid = runtime::my_tid();
    e.attach(tid);
    e.ping_all_and_wait(tid);
    e.detach(tid);
  });
  release.store(true);
  for (auto& t : readers) t.join();
  SUCCEED();
}

// Sleeps until `a` reaches `at_least` (futex wait: a sleeping thread
// runs its ping handler as soon as the signal arrives).
void wait_for(const std::atomic<int>& a, int at_least) {
  for (int v = a.load(); v < at_least; v = a.load()) a.wait(v);
}

void bump(std::atomic<int>& a) {
  a.fetch_add(1);
  a.notify_all();
}

TEST(PopEngine, ConcurrentReclaimersShareOnePingWave) {
  // Handshake coalescing: two reclaimers whose handshakes overlap should
  // share a single ping wave (one leads, the other piggybacks on the
  // wave's publishes) — strictly fewer signals than the same number of
  // strictly sequential handshakes, where every reclaimer pings everyone.
  //
  // The overlap is forced, not timed. In each concurrent round every
  // reader takes the leader's ping with sigwait (the signal is blocked);
  // readers 1.. publish and detach, so the joiner will not wait on them,
  // while reader 0 (the holder) withholds its publish, which keeps the
  // leader's wave open until the joiner has entered its handshake and
  // found the wave in flight. Every wait is a sleep, so a pinged thread
  // answers as soon as the signal lands and re-pings stay rare.
  PopEngine e(4);
  constexpr int kReaders = 6;
  constexpr int kRounds = 25;
  std::atomic<bool> release{false};
  std::atomic<int> up{0};
  std::atomic<int> turn{0};         // phase 1's alternation; 2 * kRounds after
  std::atomic<int> ready{0};        // reader-rounds armed for the next ping
  std::atomic<int> took{0};         // reader-rounds that took the ping
  std::atomic<int> joiner_ready{0};
  std::atomic<int> marked{0};       // the joiner recorded its publish count
  std::atomic<uint64_t> joiner_mark{0};
  std::atomic<int> joiner_tid{-1};
  std::atomic<int> rounds_done{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      const int tid = runtime::my_tid();
      e.attach(tid);
      bump(up);
      wait_for(turn, 2 * kRounds);
      sigset_t ping;
      sigemptyset(&ping);
      sigaddset(&ping, runtime::kPingSignal);
      pthread_sigmask(SIG_BLOCK, &ping, nullptr);
      for (int r = 0; r < kRounds; ++r) {
        wait_for(rounds_done, r);
        const timespec now{};
        while (sigtimedwait(&ping, nullptr, &now) > 0) {
        }  // re-pings of the last round
        if (i != 0 && r > 0) e.attach(tid);
        bump(ready);
        int sig = 0;
        sigwait(&ping, &sig);  // the leader's broadcast
        if (i != 0) {
          e.publish(tid);
          e.detach(tid);
          bump(took);
          continue;
        }
        bump(took);
        wait_for(marked, r + 1);
        while (e.publish_count(joiner_tid.load()) <= joiner_mark.load()) {
          std::this_thread::yield();  // the joiner is entering
        }
        while (rounds_done.load() < r + 1) {  // publish until both are done
          e.publish(tid);
          std::this_thread::yield();
        }
      }
      pthread_sigmask(SIG_UNBLOCK, &ping, nullptr);
      while (!release.load()) release.wait(false);
      if (i == 0) e.detach(tid);
    });
  }
  wait_for(up, kReaders);

  std::atomic<uint64_t> sequential_signals{0};
  std::atomic<uint64_t> concurrent_signals{0};
  std::atomic<uint64_t> waves_before_concurrent{0};
  std::atomic<int> attached_reclaimers{0};
  std::atomic<int> finished{0};
  test::run_threads(2, [&](int w) {
    const int tid = runtime::my_tid();
    e.attach(tid);
    if (w == 1) joiner_tid.store(tid);
    attached_reclaimers.fetch_add(1);
    while (attached_reclaimers.load() < 2) std::this_thread::yield();

    // Phase 1 — sequential baseline: strict alternation, no overlap, so
    // every handshake leads its own wave.
    for (int r = 0; r < kRounds; ++r) {
      while (turn.load() != 2 * r + w) std::this_thread::yield();
      sequential_signals.fetch_add(
          static_cast<uint64_t>(e.ping_all_and_wait(tid).sent));
      bump(turn);
    }

    // Phase 2 — concurrent: reclaimer 0 leads each round's wave, and
    // reclaimer 1 enters while the holder keeps it open. Reclaimer 1 owns
    // the last sequential turn, so its snapshot of the wave count is taken
    // at quiescence.
    if (w == 1) waves_before_concurrent.store(runtime::handshake_rounds());
    for (int r = 0; r < kRounds; ++r) {
      wait_for(rounds_done, r);
      if (w == 0) {
        wait_for(ready, kReaders * (r + 1));
        wait_for(joiner_ready, r + 1);
      } else {
        const uint64_t pings = e.pings_received(tid);
        bump(joiner_ready);
        wait_for(took, kReaders * (r + 1));
        // Our handler has run for the leader's ping, so the next bump of
        // our publish count is our own handshake's entry publish.
        while (e.pings_received(tid) == pings) std::this_thread::yield();
        joiner_mark.store(e.publish_count(tid));
        bump(marked);
      }
      concurrent_signals.fetch_add(
          static_cast<uint64_t>(e.ping_all_and_wait(tid).sent));
      if (finished.fetch_add(1) % 2 == 1) bump(rounds_done);
    }
    e.detach(tid);
  });

  // Each sequential handshake pings all 7 other attached threads (targeted
  // re-pings can only add to this on a very slow machine).
  EXPECT_GE(sequential_signals.load(),
            static_cast<uint64_t>(2 * kRounds * (kReaders + 1)));
  EXPECT_LT(concurrent_signals.load(), sequential_signals.load());
  // The mechanism: in at least one concurrent round the second reclaimer
  // joined the first's open wave instead of broadcasting its own.
  EXPECT_LT(runtime::handshake_rounds() - waves_before_concurrent.load(),
            static_cast<uint64_t>(2 * kRounds));

  release.store(true);
  release.notify_all();
  for (auto& t : readers) t.join();
}

TEST(PopEngine, CrossEngineWavesCoalesce) {
  // The handshake round is process-wide: with two co-resident domains
  // (the sharded service layer's shape), a reclaimer in engine B that
  // observes a wave led by a reclaimer in engine A rides it — one ping
  // publishes every domain's reservations on the receiving thread, so
  // A's broadcast advances B's publish counters too. Both handshakes
  // must terminate, and overlapping rounds must share waves (fewer
  // completed waves than handshakes).
  PopEngine ea(4), eb(4);
  constexpr int kReaders = 5;
  // Barrier-released handshake pairs until one coalesces; the cap only
  // bounds a pathological scheduler (each round overlaps with high
  // probability, so the loop normally exits within a few rounds).
  constexpr int kMaxRounds = 200;
  std::atomic<bool> release{false};
  std::atomic<int> up{0};
  std::atomic<uintptr_t> expect_a[kReaders];
  std::atomic<uintptr_t> expect_b[kReaders];
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      const int tid = runtime::my_tid();
      ea.attach(tid);
      eb.attach(tid);
      const auto va = 0xA0000 + 16 * static_cast<uintptr_t>(tid);
      const auto vb = 0xB0000 + 16 * static_cast<uintptr_t>(tid);
      ea.local_slot(tid, 0).store(va, std::memory_order_relaxed);
      eb.local_slot(tid, 0).store(vb, std::memory_order_relaxed);
      expect_a[i].store(va);
      expect_b[i].store(vb);
      up.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      eb.detach(tid);
      ea.detach(tid);
    });
  }
  while (up.load() < kReaders) std::this_thread::yield();

  std::atomic<int> attached{0};
  std::atomic<int> arrived{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> handshakes{0};
  // Worker 0 reclaims in engine A, worker 1 in engine B; a barrier per
  // round releases both handshakes together so they overlap. Rounds
  // repeat until some handshake joined the other engine's wave (checked
  // after the barrier so both workers always agree on the round count).
  test::run_threads(2, [&](int w) {
    PopEngine& mine = w == 0 ? ea : eb;
    const int tid = runtime::my_tid();
    mine.attach(tid);
    attached.fetch_add(1);
    while (attached.load() < 2) std::this_thread::yield();
    for (int r = 0; r < kMaxRounds; ++r) {
      arrived.fetch_add(1);
      while (arrived.load() < 2 * (r + 1)) std::this_thread::yield();
      // A worker sets `stop` only before its barrier arrival, so both
      // observe the same value here and exit on the same round.
      if (stop.load()) break;
      mine.ping_all_and_wait(tid);
      handshakes.fetch_add(1);
      if (ea.waves_joined() + eb.waves_joined() > 0) stop.store(true);
    }
    mine.detach(tid);
  });

  // Every handshake completed (we got here), and the reservations of
  // both domains are visible after the storm.
  smr::ScanBuffer buf;
  const int self = runtime::my_tid();
  ea.attach(self);
  eb.attach(self);
  ea.ping_all_and_wait(self);
  smr::Reservations shared = ea.collect_shared(buf);
  for (int i = 0; i < kReaders; ++i) {
    bool found = false;
    for (int j = 0; j < shared.n; ++j) {
      found = found || shared.v[j] == expect_a[i].load();
    }
    EXPECT_TRUE(found) << "engine A reservation of reader " << i << " missing";
  }
  eb.ping_all_and_wait(self);
  shared = eb.collect_shared(buf);
  for (int i = 0; i < kReaders; ++i) {
    bool found = false;
    for (int j = 0; j < shared.n; ++j) {
      found = found || shared.v[j] == expect_b[i].load();
    }
    EXPECT_TRUE(found) << "engine B reservation of reader " << i << " missing";
  }
  ea.detach(self);
  eb.detach(self);

  // Coalescing across engines: some handshake rode a wave the *other*
  // domain's reclaimer led (the loop above ran until it happened).
  EXPECT_GT(ea.waves_joined() + eb.waves_joined(), 0u)
      << "no cross-domain wave coalesced in " << kMaxRounds << " rounds";
  // Accounting: led + joined covers every handshake the engines ran
  // (the workers' rounds plus the two verification handshakes above).
  EXPECT_EQ(ea.waves_led() + ea.waves_joined() + eb.waves_led() +
                eb.waves_joined(),
            handshakes.load() + 2);

  release.store(true);
  for (auto& t : readers) t.join();
}

TEST(PopEngine, PingsReceivedCounterTracksHandlers) {
  PopEngine e(4);
  std::atomic<bool> up{false}, release{false};
  std::atomic<int> rtid{-1};
  std::thread reader([&] {
    const int tid = runtime::my_tid();
    e.attach(tid);
    rtid.store(tid);
    up.store(true);
    while (!release.load()) std::this_thread::yield();
    e.detach(tid);
  });
  while (!up.load()) std::this_thread::yield();
  const int self = runtime::my_tid();
  e.attach(self);
  const uint64_t before = e.pings_received(rtid.load());
  e.ping_all_and_wait(self);
  e.ping_all_and_wait(self);
  EXPECT_GE(e.pings_received(rtid.load()), before + 2);
  release.store(true);
  reader.join();
  e.detach(self);
}

}  // namespace
}  // namespace pop::core
