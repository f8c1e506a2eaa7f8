// NBR+ behaviour: neutralization restarts read-phase operations, write
// phases are immune and their reservations protect the published nodes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "smr/audit.hpp"
#include "smr/checkpoint.hpp"
#include "smr/nbr.hpp"
#include "../support/test_util.hpp"

namespace pop::smr {
namespace {

using test::TNode;

SmrConfig tiny() {
  SmrConfig c;
  c.retire_threshold = 2;
  return c;
}

TEST(Nbr, ReadPhaseIsNeutralizedByReclaim) {
  NbrDomain d(tiny());
  std::atomic<bool> in_read{false};
  std::atomic<bool> escape{false};
  std::atomic<bool> was_restarted{false};

  std::thread reader([&] {
    NbrDomain::Guard g(d);
    POPSMR_CHECKPOINT(d);
    if (d.stats().neutralized > 0) {
      // We are re-executing after a longjmp from the signal handler.
      was_restarted.store(true);
      return;
    }
    in_read.store(true);
    // Park in the read phase; the only ways out are neutralization (which
    // re-runs from the checkpoint above) or the escape hatch.
    while (!escape.load(std::memory_order_acquire)) {
    }
  });

  while (!in_read.load()) std::this_thread::yield();
  // Reclaim from the main thread: pings the reader, which must longjmp.
  for (int i = 0; i < 4; ++i) {
    NbrDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  // Give the signal a moment, then open the escape hatch regardless.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  escape.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(was_restarted.load());
  EXPECT_GT(d.stats().neutralized, 0u);
  d.detach();
}

TEST(Nbr, WritePhaseIsNotNeutralized) {
  NbrDomain d(tiny());
  TNode* protected_node = d.create<TNode>(9);
  std::atomic<bool> in_write{false}, release{false};

  std::thread writer([&] {
    NbrDomain::Guard g(d);
    POPSMR_CHECKPOINT(d);
    d.enter_write_phase({protected_node});
    in_write.store(true);
    while (!release.load()) std::this_thread::yield();
    // Reached without a restart: neutralization was masked.
    EXPECT_EQ(d.stats().neutralized, 0u);
  });

  while (!in_write.load()) std::this_thread::yield();
  {
    NbrDomain::Guard g(d);
    d.retire(protected_node);
  }
  for (int i = 0; i < 8; ++i) {
    NbrDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  // protected_node is reserved by the writer's write phase.
  EXPECT_GE(d.stats().unreclaimed(), 1u);
  EXPECT_EQ(protected_node->key, 9u);
  release.store(true);
  writer.join();
  d.detach();
}

TEST(Nbr, ReclaimFreesUnreservedNodes) {
  NbrDomain d(tiny());
  for (int i = 0; i < 16; ++i) {
    NbrDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  EXPECT_GT(d.stats().freed, 0u);
  d.detach();
}

TEST(Nbr, ExitWritePhaseReturnsToNeutralizableState) {
  NbrDomain d(tiny());
  std::atomic<bool> armed{false};
  std::atomic<bool> escape{false};
  std::atomic<bool> was_restarted{false};
  std::thread reader([&] {
    NbrDomain::Guard g(d);
    POPSMR_CHECKPOINT(d);
    if (d.stats().neutralized > 0) {
      was_restarted.store(true);
      return;
    }
    d.enter_write_phase({});
    d.exit_write_phase();  // back in read phase: neutralizable again
    armed.store(true);
    while (!escape.load(std::memory_order_acquire)) {
    }
  });
  while (!armed.load() && !was_restarted.load()) std::this_thread::yield();
  for (int i = 0; i < 4; ++i) {
    NbrDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  escape.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(was_restarted.load());
  EXPECT_GT(d.stats().neutralized, 0u);
  d.detach();
}

TEST(Nbr, ThresholdCrossedInWritePhaseReclaimsInline) {
  NbrDomain d(tiny());
  {
    NbrDomain::Guard g(d);
    POPSMR_CHECKPOINT(d);
    d.enter_write_phase({});
    for (int i = 0; i < 8; ++i) d.retire(d.create<TNode>(i));
  }
  EXPECT_GT(d.stats().freed, 0u);
  d.detach();
}

TEST(Nbr, AckHandshakeCountsSignals) {
  NbrDomain d(tiny());
  std::atomic<bool> up{false}, release{false};
  std::thread bystander([&] {
    d.attach();
    up.store(true);
    while (!release.load()) std::this_thread::yield();
    d.detach();
  });
  while (!up.load()) std::this_thread::yield();
  for (int i = 0; i < 8; ++i) {
    NbrDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  EXPECT_GT(d.stats().signals_sent, 0u);
  release.store(true);
  bystander.join();
  d.detach();
}

// A ping that lands while the Guard closes must not re-run the body
// outside its audit bracket: the read phase stays armed until end_op, so
// ~OpGuard has to run end_op before it leaves the bracket. Every retire
// here pings the looping reader; a body entered at bracket depth 0 is one
// the neutralization re-ran after the bracket had closed.
TEST(Nbr, GuardExitNeverRerunsBodyOutsideAuditBracket) {
  if (!audit::kCompiled) GTEST_SKIP() << "audit compiled out";
  const bool audit_was_on = audit::on();
  audit::set_enabled(true);
  SmrConfig cfg;
  cfg.retire_threshold = 1;
  NbrDomain d(cfg);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bodies{0}, unbracketed{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      NbrDomain::Guard g(d);
      POPSMR_CHECKPOINT(d);
      bodies.fetch_add(1, std::memory_order_relaxed);
      if (audit::bracket_depth() == 0) unbracketed.fetch_add(1);
    }
    d.detach();
  });
  while (bodies.load() == 0) std::this_thread::yield();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < deadline) {
    NbrDomain::Guard g(d);
    d.retire(d.create<TNode>(0));
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  d.detach();
  audit::set_enabled(audit_was_on);
  EXPECT_GT(d.stats().neutralized, 0u);
  EXPECT_EQ(unbracketed.load(), 0u) << "of " << bodies.load() << " bodies";
}

}  // namespace
}  // namespace pop::smr
