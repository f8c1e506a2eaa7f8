// Property sweeps over the configuration space: the reclamation
// invariants must hold for every scheme at every retire threshold / slot
// count / epoch frequency, not just the defaults.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "ds/iset.hpp"
#include "runtime/rng.hpp"
#include "../support/test_util.hpp"

namespace pop::ds {
namespace {

// (scheme, retire_threshold, epoch_freq)
using Param = std::tuple<std::string, uint64_t, uint64_t>;

class ConfigSweep : public ::testing::TestWithParam<Param> {};

TEST_P(ConfigSweep, RetireListHighWatermarkTracksThreshold) {
  const auto& [smr, threshold, epoch_freq] = GetParam();
  SetConfig cfg;
  cfg.capacity = 256;
  cfg.smr.retire_threshold = threshold;
  cfg.smr.epoch_freq = epoch_freq;
  auto s = make_kv("HML", smr, cfg);
  ASSERT_NE(s, nullptr);
  runtime::Xoshiro256 rng(99);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t k = rng.next_below(128);
    if (rng.percent(50)) {
      s->insert(k);
    } else {
      s->remove(k);
    }
  }
  const auto st = s->smr_stats();
  if (smr == "NR") {
    // Leaky: the list just grows.
    EXPECT_EQ(st.freed, 0u);
  } else if (smr == "EpochPOP") {
    // The POP fallback fires at C*threshold; the watermark respects that.
    EXPECT_LE(st.max_retire_len,
              cfg.smr.pop_multiplier * threshold + 8);
  } else if (smr == "IBR" || smr == "EBR") {
    // Epoch/interval schemes cannot free nodes retired in the epoch the
    // reclaimer itself still announces, so their bound grows with the
    // epoch advance period (operations/allocations per epoch).
    EXPECT_LE(st.max_retire_len, threshold + 2 * epoch_freq + 16);
  } else if (smr == "HE" || smr == "HazardEraPOP") {
    // Era schemes keep nodes whose lifespan intersects a reserved era —
    // with reclamation every `threshold` retires that carry-over is up to
    // one more threshold's worth (nodes retired in the current era).
    EXPECT_LE(st.max_retire_len, 2 * threshold + 32);
  } else {
    EXPECT_LE(st.max_retire_len, threshold + 8);
  }
  s->detach_thread();
}

TEST_P(ConfigSweep, SingleThreadGarbageIsBoundedAfterQuiescence) {
  const auto& [smr, threshold, epoch_freq] = GetParam();
  if (smr == "NR") GTEST_SKIP() << "leaky by design";
  SetConfig cfg;
  cfg.capacity = 256;
  cfg.smr.retire_threshold = threshold;
  cfg.smr.epoch_freq = epoch_freq;
  auto s = make_kv("HML", smr, cfg);
  runtime::Xoshiro256 rng(7);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t k = rng.next_below(64);
    if (rng.percent(50)) {
      s->insert(k);
    } else {
      s->remove(k);
    }
  }
  const auto st = s->smr_stats();
  // With no concurrent readers, everything below the last threshold
  // crossing is freed; a couple of epochs of slack for the epoch schemes.
  EXPECT_LE(st.unreclaimed(),
            cfg.smr.pop_multiplier * threshold + 2 * epoch_freq + 16);
  s->detach_thread();
}

std::vector<Param> sweep() {
  std::vector<Param> v;
  for (const auto& smr : all_smr_names()) {
    for (uint64_t threshold : {2ull, 16ull, 128ull, 1024ull}) {
      v.emplace_back(smr, threshold, 4);
    }
    v.emplace_back(smr, 64, 1);    // epoch every op
    v.emplace_back(smr, 64, 512);  // epoch almost never
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfigSweep, ::testing::ValuesIn(sweep()), [](const auto& info) {
      return std::get<0>(info.param) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_e" +
             std::to_string(std::get<2>(info.param));
    });

class SlotCountSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SlotCountSweep, TreesWorkWithMinimalSlotBudget) {
  // DGT needs 4 rotating slots, ABT 3: both must work at exactly that
  // budget and with the full default.
  const auto& [smr, slots] = GetParam();
  SetConfig cfg;
  cfg.capacity = 512;
  cfg.smr.num_slots = slots;
  cfg.smr.retire_threshold = 16;
  for (const char* ds : {"DGT", "ABT"}) {
    auto s = make_kv(ds, smr, cfg);
    ASSERT_NE(s, nullptr);
    runtime::Xoshiro256 rng(5);
    for (int i = 0; i < 2000; ++i) {
      const uint64_t k = rng.next_below(256);
      if (rng.percent(50)) {
        s->insert(k);
      } else {
        s->remove(k);
      }
    }
    EXPECT_GE(s->smr_stats().retired, 1u) << ds << "/" << smr;
    s->detach_thread();
  }
}

std::vector<std::tuple<std::string, int>> slot_sweep() {
  std::vector<std::tuple<std::string, int>> v;
  for (const auto& smr : all_smr_names()) {
    v.emplace_back(smr, 4);
    v.emplace_back(smr, 8);
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SlotCountSweep,
                         ::testing::ValuesIn(slot_sweep()),
                         [](const auto& info) {
                           return std::get<0>(info.param) + "_s" +
                                  std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace pop::ds
