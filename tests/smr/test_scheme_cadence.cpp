// Retire cadence of all eleven schemes, pinned to exact numbers: one
// fixed single-thread retire sequence per (scheme, retire_threshold,
// pressure_bound) row, and the passes, frees and forced passes it
// produces. Every scheme hands its reclamation pass to the shared retire
// entry point (DomainCore::retire), so these rows pin that entry point's
// trigger arithmetic: the every-retire_threshold tick, EpochPOP's own
// list-length escalation, and the memory-pressure backstop.
//
// Also checked at compile time: every scheme still offers the surface the
// data structures and the benchmark call.
#include <gtest/gtest.h>

#include <atomic>
#include <concepts>
#include <string>
#include <string_view>

#include "smr/all.hpp"
#include "../support/test_util.hpp"

namespace pop {
namespace {

using Node = test::TNode;

template <class D>
concept SchemeSurface =
    std::default_initializable<D> &&
    std::constructible_from<typename D::Guard, D&> &&
    requires(D d, const std::atomic<Node*>& src, Node* n) {
      { d.protect(0, src) } -> std::same_as<Node*>;
      { d.template create<Node>(uint64_t{1}) } -> std::same_as<Node*>;
      d.retire(n);
      d.detach();
      { d.stats() } -> std::same_as<smr::StatsSnapshot>;
    };

static_assert(SchemeSurface<smr::NrDomain>);
static_assert(SchemeSurface<smr::HpDomain>);
static_assert(SchemeSurface<smr::HpAsymDomain>);
static_assert(SchemeSurface<smr::HeDomain>);
static_assert(SchemeSurface<smr::EbrDomain>);
static_assert(SchemeSurface<smr::IbrDomain>);
static_assert(SchemeSurface<smr::NbrDomain>);
static_assert(SchemeSurface<smr::BrcDomain>);
static_assert(SchemeSurface<core::HazardPtrPopDomain>);
static_assert(SchemeSurface<core::HazardEraPopDomain>);
static_assert(SchemeSurface<core::EpochPopDomain>);

struct Counts {
  uint64_t scans, freed, ebr_frees, pop_frees, forced_handshakes;
  bool operator==(const Counts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Counts& c) {
  return os << "{scans " << c.scans << ", freed " << c.freed << ", ebr "
            << c.ebr_frees << ", pop " << c.pop_frees << ", forced "
            << c.forced_handshakes << "}";
}

// 600 operations retiring 1, 2, 3, 1, 2, 3, ... nodes each (1200 in all),
// each inside its own operation bracket, as a data structure retires.
template <class D>
Counts run(uint64_t threshold, uint64_t pressure_bound) {
  smr::SmrConfig cfg;
  cfg.retire_threshold = threshold;
  cfg.pressure_bound = pressure_bound;
  D d(cfg);
  for (int op = 0; op < 600; ++op) {
    typename D::Guard g(d);
    for (int j = 0; j <= op % 3; ++j) {
      d.retire(d.template create<Node>(static_cast<uint64_t>(op)));
    }
  }
  const smr::StatsSnapshot s = d.stats();
  d.detach();
  return {s.scans, s.freed, s.ebr_frees, s.pop_frees, s.forced_handshakes};
}

Counts run_scheme(std::string_view name, uint64_t threshold,
                  uint64_t pressure_bound) {
  if (name == "NR") return run<smr::NrDomain>(threshold, pressure_bound);
  if (name == "HP") return run<smr::HpDomain>(threshold, pressure_bound);
  if (name == "HPAsym") {
    return run<smr::HpAsymDomain>(threshold, pressure_bound);
  }
  if (name == "HE") return run<smr::HeDomain>(threshold, pressure_bound);
  if (name == "EBR") return run<smr::EbrDomain>(threshold, pressure_bound);
  if (name == "IBR") return run<smr::IbrDomain>(threshold, pressure_bound);
  if (name == "NBR") return run<smr::NbrDomain>(threshold, pressure_bound);
  if (name == "BRC") return run<smr::BrcDomain>(threshold, pressure_bound);
  if (name == "HazardPtrPOP") {
    return run<core::HazardPtrPopDomain>(threshold, pressure_bound);
  }
  if (name == "HazardEraPOP") {
    return run<core::HazardEraPopDomain>(threshold, pressure_bound);
  }
  if (name == "EpochPOP") {
    return run<core::EpochPopDomain>(threshold, pressure_bound);
  }
  ADD_FAILURE() << "unknown scheme " << name;
  return {};
}

struct Row {
  const char* scheme;
  uint64_t threshold;
  uint64_t pressure_bound;  // 0: no backstop (POPSMR_PRESSURE_BOUND unset)
  Counts want;
};

void PrintTo(const Row& r, std::ostream* os) {
  *os << r.scheme << " threshold " << r.threshold << " pressure_bound "
      << r.pressure_bound;
}

// The pressure rows check the backstop every 32 retires against a bound of
// 24, so it fires between the threshold-128 passes.
constexpr Row kRows[] = {
    {"NR", 2, 0, {0, 0, 0, 0, 0}},
    {"NR", 16, 0, {0, 0, 0, 0, 0}},
    {"NR", 128, 0, {0, 0, 0, 0, 0}},
    {"NR", 128, 24, {0, 0, 0, 0, 0}},  // no pass to force
    {"HP", 2, 0, {600, 1200, 0, 0, 0}},
    {"HP", 16, 0, {75, 1200, 0, 0, 0}},
    {"HP", 128, 0, {9, 1152, 0, 0, 0}},
    {"HP", 128, 24, {37, 1193, 0, 0, 28}},
    {"HPAsym", 2, 0, {600, 1200, 0, 0, 0}},
    {"HPAsym", 16, 0, {75, 1200, 0, 0, 0}},
    {"HPAsym", 128, 0, {9, 1152, 0, 0, 0}},
    {"HPAsym", 128, 24, {37, 1193, 0, 0, 28}},
    {"HE", 2, 0, {600, 1200, 0, 0, 0}},
    {"HE", 16, 0, {75, 1200, 0, 0, 0}},
    {"HE", 128, 0, {9, 1152, 0, 0, 0}},
    {"HE", 128, 24, {37, 1193, 0, 0, 28}},
    // EBR and BRC used to trigger on list length. EBR's own announced
    // epoch pins the nodes retired in the current operation, so its list
    // did not empty on a pass and the length trigger drifted off the
    // threshold: {602, 1149}, {77, 1149}, {11, 1021} and, with pressure,
    // {37, 1152, forced 37}. BRC's deferred passes overshot the same way:
    // {66, 1188}, {9, 1161} and {37, 1185, forced 37}. On the shared tick
    // both pass exactly once per threshold retires, like the rest.
    {"EBR", 2, 0, {600, 1149, 0, 0, 0}},
    {"EBR", 16, 0, {75, 1149, 0, 0, 0}},
    {"EBR", 128, 0, {9, 1149, 0, 0, 0}},
    {"EBR", 128, 24, {37, 1149, 0, 0, 28}},
    {"IBR", 2, 0, {600, 1152, 0, 0, 0}},
    {"IBR", 16, 0, {75, 1152, 0, 0, 0}},
    {"IBR", 128, 0, {9, 1088, 0, 0, 0}},
    {"IBR", 128, 24, {46, 1161, 0, 0, 37}},
    {"NBR", 2, 0, {600, 1200, 0, 0, 0}},
    {"NBR", 16, 0, {75, 1200, 0, 0, 0}},
    {"NBR", 128, 0, {9, 1152, 0, 0, 0}},
    {"NBR", 128, 24, {37, 1193, 0, 0, 28}},
    {"BRC", 2, 0, {400, 1200, 0, 0, 0}},
    {"BRC", 16, 0, {75, 1200, 0, 0, 0}},
    {"BRC", 128, 0, {9, 1152, 0, 0, 0}},
    {"BRC", 128, 24, {37, 1194, 0, 0, 30}},
    {"HazardPtrPOP", 2, 0, {600, 1200, 0, 0, 0}},
    {"HazardPtrPOP", 16, 0, {75, 1200, 0, 0, 0}},
    {"HazardPtrPOP", 128, 0, {9, 1152, 0, 0, 0}},
    {"HazardPtrPOP", 128, 24, {37, 1193, 0, 0, 28}},
    {"HazardEraPOP", 2, 0, {600, 1200, 0, 0, 0}},
    {"HazardEraPOP", 16, 0, {75, 1200, 0, 0, 0}},
    {"HazardEraPOP", 128, 0, {9, 1152, 0, 0, 0}},
    {"HazardEraPOP", 128, 24, {37, 1193, 0, 0, 28}},
    // Algorithm 3: epoch sweeps on list length, the POP pass once the list
    // reaches pop_multiplier (2) x threshold — at threshold 2 and 16 the
    // thread's own announced epoch keeps the list long enough to escalate.
    {"EpochPOP", 2, 0, {898, 1197, 13, 1184, 0}},
    {"EpochPOP", 16, 0, {110, 1181, 125, 1056, 0}},
    {"EpochPOP", 128, 0, {11, 1021, 1021, 0, 0}},
    {"EpochPOP", 128, 24, {37, 1184, 0, 1184, 37}},
};

class SchemeCadence : public ::testing::TestWithParam<Row> {};

TEST_P(SchemeCadence, ExactPassAndFreeCounts) {
  const Row& r = GetParam();
  EXPECT_EQ(run_scheme(r.scheme, r.threshold, r.pressure_bound), r.want);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeCadence, ::testing::ValuesIn(kRows),
    [](const ::testing::TestParamInfo<Row>& info) {
      return std::string(info.param.scheme) + "_t" +
             std::to_string(info.param.threshold) + "_p" +
             std::to_string(info.param.pressure_bound);
    });

}  // namespace
}  // namespace pop
