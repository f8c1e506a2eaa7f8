// Typed tests of the uniform SMR policy interface over every scheme:
// protect() value semantics, create/retire/drain accounting, clear(),
// copy_slot(), and the operation brackets. These are the "drop-in
// replacement" contract tests — every scheme must pass identically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "smr/all.hpp"
#include "../support/test_util.hpp"

namespace pop {
namespace {

using test::TNode;

template <class Smr>
class ProtectSemantics : public ::testing::Test {
 protected:
  smr::SmrConfig small_cfg() const {
    smr::SmrConfig c;
    c.retire_threshold = 4;
    c.epoch_freq = 2;
    return c;
  }
};

using AllSchemes =
    ::testing::Types<smr::NrDomain, smr::HpDomain, smr::HpAsymDomain,
                     smr::HeDomain, smr::EbrDomain, smr::IbrDomain,
                     smr::NbrDomain, smr::BrcDomain, core::HazardPtrPopDomain,
                     core::HazardEraPopDomain, core::EpochPopDomain>;
TYPED_TEST_SUITE(ProtectSemantics, AllSchemes);

TYPED_TEST(ProtectSemantics, ProtectReturnsCurrentValue) {
  TypeParam d;
  typename TypeParam::Guard g(d);
  TNode* n = d.template create<TNode>(7);
  std::atomic<TNode*> src{n};
  TNode* got = d.protect(0, src);
  EXPECT_EQ(got, n);
  EXPECT_EQ(got->key, 7u);
  src.store(nullptr);
  smr::destroy_unpublished(n);
}

TYPED_TEST(ProtectSemantics, ProtectReturnsNullForNullSource) {
  TypeParam d;
  typename TypeParam::Guard g(d);
  std::atomic<TNode*> src{nullptr};
  EXPECT_EQ(d.protect(0, src), nullptr);
}

TYPED_TEST(ProtectSemantics, ProtectTracksLatestValueAcrossChanges) {
  TypeParam d;
  typename TypeParam::Guard g(d);
  TNode* a = d.template create<TNode>(1);
  TNode* b = d.template create<TNode>(2);
  std::atomic<TNode*> src{a};
  EXPECT_EQ(d.protect(0, src), a);
  src.store(b);
  EXPECT_EQ(d.protect(1, src), b);
  smr::destroy_unpublished(a);
  smr::destroy_unpublished(b);
}

// create stamps the scheme's clock over whatever the constructor wrote,
// and the clock never runs backwards.
TYPED_TEST(ProtectSemantics, CreateStampsBirthEra) {
  struct Unstamped : smr::Reclaimable {
    Unstamped() { birth_era = UINT64_MAX; }
  };
  TypeParam d(this->small_cfg());
  typename TypeParam::Guard g(d);
  Unstamped* first = d.template create<Unstamped>();
  for (int i = 0; i < 16; ++i) d.retire(d.template create<TNode>(i));
  Unstamped* later = d.template create<Unstamped>();
  EXPECT_LE(first->birth_era, later->birth_era);
  EXPECT_NE(later->birth_era, UINT64_MAX);
  smr::destroy_unpublished(first);
  smr::destroy_unpublished(later);
}

// create<T> accepts only nodes a sweep can free without running code:
// a destructor would be skipped, so such a type must not compile.
struct DtorNode : smr::Reclaimable {
  ~DtorNode() {}
};
template <class D, class T>
concept Creates = requires(D d) {
  d.template create<T>();
  d.template create<T>(smr::TailBytes{64});
};
static_assert(Creates<smr::EbrDomain, TNode>);
static_assert(!Creates<smr::EbrDomain, DtorNode>);

TYPED_TEST(ProtectSemantics, RetiredNodesAreCountedAndDrainedAtTeardown) {
  smr::StatsSnapshot snap;
  {
    TypeParam d(this->small_cfg());
    typename TypeParam::Guard g(d);
    for (int i = 0; i < 3; ++i) {
      d.retire(d.template create<TNode>(i));
    }
    snap = d.stats();
    EXPECT_EQ(snap.retired, 3u);
  }
  // Destructor drains: valgrind/ASan builds catch leaks here.
}

TYPED_TEST(ProtectSemantics, ManyRetiresEventuallyFree) {
  TypeParam d(this->small_cfg());
  for (int i = 0; i < 64; ++i) {
    typename TypeParam::Guard g(d);
    d.retire(d.template create<TNode>(i));
  }
  const auto s = d.stats();
  EXPECT_EQ(s.retired, 64u);
  if constexpr (std::is_same_v<TypeParam, smr::NrDomain>) {
    EXPECT_EQ(s.freed, 0u);  // leaky by design
  } else {
    EXPECT_GT(s.freed, 0u);
    EXPECT_LE(s.freed, s.retired);
  }
}

TYPED_TEST(ProtectSemantics, MaxRetireLenIsTracked) {
  TypeParam d(this->small_cfg());
  for (int i = 0; i < 10; ++i) {
    typename TypeParam::Guard g(d);
    d.retire(d.template create<TNode>(i));
  }
  EXPECT_GE(d.stats().max_retire_len, 1u);
  EXPECT_LE(d.stats().max_retire_len, 10u);
}

TYPED_TEST(ProtectSemantics, ClearAndCopySlotAreCallable) {
  TypeParam d;
  typename TypeParam::Guard g(d);
  TNode* n = d.template create<TNode>(1);
  std::atomic<TNode*> src{n};
  d.protect(0, src);
  d.copy_slot(1, 0);
  d.clear();
  smr::destroy_unpublished(n);
}

TYPED_TEST(ProtectSemantics, GuardBracketsNest) {
  TypeParam d;
  for (int i = 0; i < 100; ++i) {
    typename TypeParam::Guard g(d);
    std::atomic<TNode*> src{nullptr};
    (void)d.protect(0, src);
  }
  SUCCEED();
}

TYPED_TEST(ProtectSemantics, StatsSnapshotAggregates) {
  TypeParam d(this->small_cfg());
  {
    typename TypeParam::Guard g(d);
    d.retire(d.template create<TNode>(0));
  }
  const auto s = d.stats();
  EXPECT_EQ(s.retired, 1u);
  EXPECT_EQ(s.unreclaimed(), s.retired - s.freed);
}

TYPED_TEST(ProtectSemantics, DetachClearsThreadState) {
  TypeParam d;
  {
    typename TypeParam::Guard g(d);
    std::atomic<TNode*> src{nullptr};
    (void)d.protect(0, src);
  }
  d.detach();
  // Re-attach transparently on the next op.
  typename TypeParam::Guard g(d);
  SUCCEED();
}

}  // namespace
}  // namespace pop
