// The drop-in-replacement claim, as a compile+runtime matrix: every DS
// instantiates under every scheme through the public factory, reports the
// right names, and performs basic operations.
#include <gtest/gtest.h>

#include "ds/iset.hpp"

namespace pop::ds {
namespace {

TEST(FactoryMatrix, AllCombinationsConstructAndOperate) {
  for (const auto& ds : all_ds_names()) {
    for (const auto& smr : all_smr_names()) {
      SetConfig cfg;
      cfg.capacity = 128;
      auto s = make_kv(ds, smr, cfg);
      ASSERT_NE(s, nullptr) << ds << "/" << smr;
      EXPECT_EQ(s->ds_name(), ds);
      EXPECT_EQ(s->smr_name(), smr);
      EXPECT_TRUE(s->insert(1)) << ds << "/" << smr;
      EXPECT_TRUE(s->get(1, nullptr)) << ds << "/" << smr;
      EXPECT_TRUE(s->remove(1)) << ds << "/" << smr;
      EXPECT_FALSE(s->get(1, nullptr)) << ds << "/" << smr;
      EXPECT_EQ(s->size_slow(), 0u) << ds << "/" << smr;
      s->detach_thread();
    }
  }
}

TEST(FactoryMatrix, UnknownNamesReturnNullAndSayWhichNameWasBad) {
  SetConfig cfg;
  // A typo'd name must not fail as a bare nullptr: the factory prints one
  // stderr line naming the offender (and the known catalogue).
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(make_kv("NOPE", "HP", cfg), nullptr);
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unknown data structure 'NOPE'"), std::string::npos)
      << "stderr was: " << err;

  ::testing::internal::CaptureStderr();
  EXPECT_EQ(make_kv("HML", "NOPE2", cfg), nullptr);
  err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unknown SMR scheme 'NOPE2'"), std::string::npos)
      << "stderr was: " << err;
}

TEST(FactoryMatrix, KvSurfaceRoundTripsThroughEveryCombination) {
  for (const auto& ds : all_ds_names()) {
    for (const auto& smr : all_smr_names()) {
      SetConfig cfg;
      cfg.capacity = 128;
      auto m = make_kv(ds, smr, cfg);
      ASSERT_NE(m, nullptr) << ds << "/" << smr;
      uint64_t v = 0;
      EXPECT_EQ(m->put(7, 70), PutResult::kInserted) << ds << "/" << smr;
      ASSERT_TRUE(m->get(7, &v)) << ds << "/" << smr;
      EXPECT_EQ(v, 70u);
      EXPECT_EQ(m->put(7, 71), PutResult::kReplaced) << ds << "/" << smr;
      ASSERT_TRUE(m->get(7, &v)) << ds << "/" << smr;
      EXPECT_EQ(v, 71u);
      // The set shims ride on the same surface: insert-if-absent refuses
      // (without retiring anything), contains sees the key.
      EXPECT_FALSE(m->insert(7)) << ds << "/" << smr;
      EXPECT_TRUE(m->get(7, nullptr)) << ds << "/" << smr;
      EXPECT_TRUE(m->remove(7)) << ds << "/" << smr;
      EXPECT_FALSE(m->get(7, &v)) << ds << "/" << smr;
      m->detach_thread();
    }
  }
}

TEST(FactoryMatrix, ExpectedCatalogue) {
  EXPECT_EQ(all_ds_names().size(), 6u);
  EXPECT_EQ(all_smr_names().size(), 11u);
}

TEST(FactoryMatrix, StatsStartClean) {
  SetConfig cfg;
  auto s = make_kv("HML", "HazardPtrPOP", cfg);
  const auto st = s->smr_stats();
  EXPECT_EQ(st.retired, 0u);
  EXPECT_EQ(st.freed, 0u);
  EXPECT_EQ(st.signals_sent, 0u);
}

}  // namespace
}  // namespace pop::ds
