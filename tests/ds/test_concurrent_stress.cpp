// Concurrent stress across the full (ds x smr) matrix via the factory:
// mixed random operations from several threads, then global invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>

#include "ds/iset.hpp"
#include "runtime/rng.hpp"
#include "../support/test_util.hpp"

namespace pop::ds {
namespace {

class ConcurrentStress
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(ConcurrentStress, MixedOpsPreserveNetCount) {
  SetConfig cfg;
  cfg.capacity = 512;
  cfg.smr.retire_threshold = 16;  // aggressive reclamation
  cfg.smr.epoch_freq = 4;
  auto s = make_kv(std::get<0>(GetParam()), std::get<1>(GetParam()), cfg);
  ASSERT_NE(s, nullptr);

  // Prefill half the range.
  uint64_t prefilled = 0;
  for (uint64_t k = 0; k < 512; k += 2) prefilled += s->insert(k);

  std::atomic<int64_t> net{0};
  test::run_threads(4, [&](int w) {
    runtime::Xoshiro256 rng(1234 + w);
    for (int i = 0; i < 4000; ++i) {
      const uint64_t k = rng.next_below(512);
      const uint64_t dice = rng.next_below(100);
      if (dice < 40) {
        if (s->insert(k)) net.fetch_add(1);
      } else if (dice < 80) {
        if (s->remove(k)) net.fetch_sub(1);
      } else {
        (void)s->get(k, nullptr);
      }
    }
    s->detach_thread();
  });

  const int64_t expect =
      static_cast<int64_t>(prefilled) + net.load();
  ASSERT_GE(expect, 0);
  EXPECT_EQ(s->size_slow(), static_cast<uint64_t>(expect));

  const auto st = s->smr_stats();
  EXPECT_GE(st.retired, st.freed);
  s->detach_thread();
}

std::vector<std::tuple<std::string, std::string>> full_matrix() {
  std::vector<std::tuple<std::string, std::string>> v;
  for (const auto& ds : all_ds_names()) {
    for (const auto& smr : all_smr_names()) v.emplace_back(ds, smr);
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConcurrentStress, ::testing::ValuesIn(full_matrix()),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace pop::ds
