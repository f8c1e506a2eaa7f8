// Randomized differential testing: every (data structure x SMR scheme)
// combination must behave exactly like std::set under a random single-
// threaded operation sequence. This catches both data-structure logic
// bugs and reclamation bugs that corrupt structure (premature frees
// manifest as wrong answers under the poisoning allocator elsewhere).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "ds/iset.hpp"
#include "runtime/rng.hpp"

namespace pop::ds {
namespace {

class SetSemantics
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  std::unique_ptr<IKV> make(uint64_t key_range) {
    SetConfig cfg;
    cfg.capacity = key_range;
    cfg.smr.retire_threshold = 8;  // reclaim constantly: stress frees
    cfg.smr.epoch_freq = 2;
    auto s = make_kv(std::get<0>(GetParam()), std::get<1>(GetParam()), cfg);
    EXPECT_NE(s, nullptr);
    return s;
  }
};

TEST_P(SetSemantics, MatchesStdSetUnderRandomOps) {
  constexpr uint64_t kRange = 64;  // small range: heavy key collisions
  auto s = make(kRange);
  std::set<uint64_t> ref;
  runtime::Xoshiro256 rng(2024);
  for (int i = 0; i < 6000; ++i) {
    const uint64_t k = rng.next_below(kRange);
    switch (rng.next_below(3)) {
      case 0:
        EXPECT_EQ(s->insert(k), ref.insert(k).second) << "insert " << k;
        break;
      case 1:
        EXPECT_EQ(s->remove(k), ref.erase(k) == 1) << "erase " << k;
        break;
      default:
        EXPECT_EQ(s->get(k, nullptr), ref.count(k) == 1) << "contains " << k;
    }
  }
  EXPECT_EQ(s->size_slow(), ref.size());
  s->detach_thread();
}

TEST_P(SetSemantics, InsertEraseRoundTrip) {
  auto s = make(1024);
  for (uint64_t k = 0; k < 200; ++k) {
    EXPECT_FALSE(s->get(k, nullptr));
    EXPECT_TRUE(s->insert(k));
    EXPECT_TRUE(s->get(k, nullptr));
    EXPECT_FALSE(s->insert(k)) << "duplicate insert must fail";
  }
  EXPECT_EQ(s->size_slow(), 200u);
  for (uint64_t k = 0; k < 200; ++k) {
    EXPECT_TRUE(s->remove(k));
    EXPECT_FALSE(s->get(k, nullptr));
    EXPECT_FALSE(s->remove(k)) << "double erase must fail";
  }
  EXPECT_EQ(s->size_slow(), 0u);
  s->detach_thread();
}

TEST_P(SetSemantics, ReinsertAfterEraseWorks) {
  auto s = make(64);
  for (int round = 0; round < 50; ++round) {
    for (uint64_t k = 0; k < 16; ++k) EXPECT_TRUE(s->insert(k));
    for (uint64_t k = 0; k < 16; ++k) EXPECT_TRUE(s->remove(k));
  }
  EXPECT_EQ(s->size_slow(), 0u);
  s->detach_thread();
}

TEST_P(SetSemantics, StatsAccountRetires) {
  auto s = make(64);
  for (int round = 0; round < 20; ++round) {
    for (uint64_t k = 0; k < 16; ++k) s->insert(k);
    for (uint64_t k = 0; k < 16; ++k) s->remove(k);
  }
  const auto st = s->smr_stats();
  EXPECT_GT(st.retired, 0u);
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
    Matrix, SetSemantics, ::testing::ValuesIn(full_matrix()),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace pop::ds
