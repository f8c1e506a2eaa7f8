// Scenario engine semantics: phase partitioning of work, per-phase
// thread counts, churn cycling, the stall injector's grow-and-recover
// trajectory, spec validation/clamping, and the memory-timeline sampler.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

#include "runtime/thread_registry.hpp"
#include "workload/scenario_engine.hpp"

namespace pop::workload {
namespace {

ScenarioSpec base(const std::string& ds, const std::string& smr) {
  ScenarioSpec s;
  s.ds = ds;
  s.smr = smr;
  s.threads = 2;
  s.key_range = 256;
  s.smr_cfg.retire_threshold = 32;
  return s;
}

// A phase's SMR delta is ThreadStats::since: every counter subtracted
// field by field, max_retire_len (a high-watermark) kept from the later
// snapshot. Distinct values per field catch a field that is skipped or
// paired with the wrong one.
TEST(ScenarioEngine, StatsSinceIsFieldwiseDifference) {
  constexpr size_t kFields = sizeof(smr::StatsSnapshot) / sizeof(uint64_t);
  constexpr size_t kWatermark =
      offsetof(smr::StatsSnapshot, max_retire_len) / sizeof(uint64_t);
  uint64_t ra[kFields], rb[kFields], rd[kFields];
  for (size_t i = 0; i < kFields; ++i) {
    ra[i] = 10 + i;
    rb[i] = 1000 + 37 * i;
  }
  smr::StatsSnapshot a, b;
  std::memcpy(&a, ra, sizeof a);
  std::memcpy(&b, rb, sizeof b);
  const smr::StatsSnapshot d = b.since(a);
  std::memcpy(rd, &d, sizeof d);
  for (size_t i = 0; i < kFields; ++i) {
    const uint64_t want = i == kWatermark ? rb[i] : rb[i] - ra[i];
    EXPECT_EQ(rd[i], want) << "field " << i;
  }
  EXPECT_EQ(d.max_retire_len, b.max_retire_len);
  EXPECT_EQ(d.unreclaimed(), b.unreclaimed() - a.unreclaimed());
}

TEST(ScenarioEngine, SinglePhaseAggregatesMatchPhaseRows) {
  ScenarioSpec s = base("HML", "EpochPOP");
  s.phases.push_back(PhaseSpec{});
  s.phases[0].duration_ms = 60;
  const auto r = run_scenario(s);
  ASSERT_EQ(r.phases.size(), 1u);
  EXPECT_GT(r.ops, 0u);
  EXPECT_EQ(r.ops, r.phases[0].ops);
  EXPECT_EQ(r.reads, r.phases[0].reads);
  EXPECT_GT(r.mops, 0.0);
  EXPECT_TRUE(r.warnings.empty()) << r.warnings[0];
  EXPECT_EQ(r.churn_cycles, 0u);
  EXPECT_TRUE(r.samples.empty());  // sampler off by default
}

TEST(ScenarioEngine, PhasePartitioningIsExact) {
  // Ops are counted under the phase spec the worker actually read, so a
  // contains-only phase must record zero updates — no boundary bleed.
  ScenarioSpec s = base("HML", "EBR");
  PhaseSpec writes;
  writes.name = "writes";
  writes.duration_ms = 50;
  writes.pct_insert = 50;
  writes.pct_erase = 50;
  PhaseSpec reads;
  reads.name = "reads";
  reads.duration_ms = 50;
  reads.pct_insert = 0;
  reads.pct_erase = 0;
  s.phases = {writes, reads};
  const auto r = run_scenario(s);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_GT(r.phases[0].updates, 0u);
  EXPECT_EQ(r.phases[0].reads, 0u);
  EXPECT_GT(r.phases[1].reads, 0u);
  EXPECT_EQ(r.phases[1].updates, 0u);
  EXPECT_EQ(r.ops, r.phases[0].ops + r.phases[1].ops);
}

TEST(ScenarioEngine, PerPhaseThreadCountsApply) {
  ScenarioSpec s = base("HMHT", "HazardPtrPOP");
  s.threads = 1;
  PhaseSpec solo;
  solo.name = "solo";
  solo.duration_ms = 40;
  PhaseSpec burst;
  burst.name = "burst";
  burst.duration_ms = 40;
  burst.threads = 4;
  s.phases = {solo, burst};
  const auto r = run_scenario(s);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_EQ(r.phases[0].threads, 1);
  EXPECT_EQ(r.phases[1].threads, 4);
  EXPECT_GT(r.phases[0].ops, 0u);
  EXPECT_GT(r.phases[1].ops, 0u);
}

TEST(ScenarioEngine, SkewedPhasesRunEveryDistribution) {
  ScenarioSpec s = base("HML", "HazardEraPOP");
  PhaseSpec zipf;
  zipf.name = "zipf";
  zipf.duration_ms = 40;
  zipf.keys.kind = KeyDist::kZipfian;
  zipf.keys.zipf_theta = 0.99;
  PhaseSpec hot;
  hot.name = "hot";
  hot.duration_ms = 40;
  hot.keys.kind = KeyDist::kHotspot;
  hot.keys.hot_move_every_ms = 10;
  s.phases = {zipf, hot};
  const auto r = run_scenario(s);
  EXPECT_GT(r.phases[0].ops, 0u);
  EXPECT_GT(r.phases[1].ops, 0u);
  EXPECT_LE(r.final_size, s.key_range);
}

TEST(ScenarioEngine, ChurnCyclesWorkersAndRecyclesTids) {
  auto& reg = runtime::ThreadRegistry::instance();
  const int max_tid_before = reg.max_tid();
  ScenarioSpec s = base("HML", "EpochPOP");
  s.threads = 2;
  s.phases.push_back(PhaseSpec{});
  s.phases[0].duration_ms = 120;
  s.phases[0].pct_insert = 40;
  s.phases[0].pct_erase = 40;
  s.churn.enabled = true;
  s.churn.interval_ms = 10;
  const auto r = run_scenario(s);
  EXPECT_GE(r.churn_cycles, 4u);
  EXPECT_GT(r.ops, 0u);
  // Replacements recycle deregistered slots instead of growing the
  // registry: the high-water tid stays within the static-pool footprint.
  EXPECT_LE(reg.max_tid(), max_tid_before + s.threads + 2);
}

TEST(ScenarioEngine, StallInjectorShowsGrowthAndRecovery) {
  // The paper's robustness story as a trajectory: park a victim inside an
  // operation under EBR and garbage grows for the whole window; resume it
  // and the backlog drains back to baseline.
  ScenarioSpec s = base("HML", "EBR");
  s.threads = 3;
  s.smr_cfg.retire_threshold = 32;
  // Frequent epoch advances so the post-resume drain tracks op progress
  // closely rather than wall time (the drain needs ops, and a loaded
  // 1-core machine running ctest -j gives this test few of them).
  s.smr_cfg.epoch_freq = 8;
  for (const char* nm : {"warmup", "stalled", "recovery"}) {
    PhaseSpec p;
    p.name = nm;
    // The recovery phase gets extra wall time for the same reason.
    p.duration_ms = std::string(nm) == "recovery" ? 200 : 60;
    p.pct_insert = 40;
    p.pct_erase = 40;
    s.phases.push_back(p);
  }
  s.stall.enabled = true;
  s.stall.victim = 0;
  s.stall.park_after_ms = 60;
  s.stall.park_for_ms = 60;
  s.mem_sample_every_ms = 5;
  // The growth-and-drain shape is deterministic given CPU time; getting
  // that CPU time under ctest -j on a one-core machine is not. An
  // attempt only counts when the coordinator actually delivered the full
  // park window (a late wakeup shrinks it: park_at and resume_at are
  // absolute); a starved recovery phase can likewise end mid-backlog.
  // Retry the scenario a few times and require one clean grow-then-drain.
  bool good = false;
  for (int attempt = 0; attempt < 3 && !good; ++attempt) {
    const auto r = run_scenario(s);
    ASSERT_FALSE(r.samples.empty());
    bool saw_parked = false;
    for (const auto& m : r.samples) saw_parked |= m.victim_parked;
    const bool full_window =
        r.stall_resumed_at_ms >= r.stall_parked_at_ms + 50;
    const bool grew =
        r.stall_peak_unreclaimed > r.baseline_unreclaimed + 200;
    const bool drained =
        r.final_unreclaimed < r.stall_peak_unreclaimed / 2;
    good = saw_parked && full_window && grew && drained;
  }
  EXPECT_TRUE(good)
      << "no attempt showed the sampler-observed park window with garbage "
         "growing while the EBR reader was parked and draining after resume";
}

TEST(ScenarioEngine, StallAgainstPopSchemeStaysBoundedAndPings) {
  ScenarioSpec s = base("HML", "EpochPOP");
  s.threads = 3;
  s.smr_cfg.retire_threshold = 32;
  s.smr_cfg.pop_multiplier = 2;
  PhaseSpec p;
  p.duration_ms = 150;
  p.pct_insert = 40;
  p.pct_erase = 40;
  s.phases.push_back(p);
  s.stall.enabled = true;
  s.stall.park_after_ms = 30;
  s.stall.park_for_ms = 80;
  const auto r = run_scenario(s);
  EXPECT_GT(r.smr.signals_sent, 0u)
      << "reclaimers must fall back to publish-on-ping during the stall";
  // Robustness: the POP fallback keeps garbage well under what the EBR
  // baseline accumulates in the same window (which is all of it).
  EXPECT_GT(r.smr.freed, 0u);
  EXPECT_LT(r.stall_peak_unreclaimed,
            r.phases[0].smr_delta.retired / 2)
      << "POP must reclaim around the parked thread";
}

TEST(ScenarioEngine, MemTimelineSamplesCoverPhases) {
  ScenarioSpec s = base("HMHT", "HP");
  PhaseSpec a;
  a.duration_ms = 40;
  PhaseSpec b;
  b.duration_ms = 40;
  s.phases = {a, b};
  s.mem_sample_every_ms = 5;
  const auto r = run_scenario(s);
  ASSERT_GE(r.samples.size(), 8u);
  EXPECT_EQ(r.samples.front().phase, 0);
  EXPECT_EQ(r.samples.back().phase, 1);
  uint64_t prev_ms = 0;
  for (const auto& m : r.samples) {
    // Counters are torn-read mid-run, so only saturating-derived values
    // are assertable: unreclaimed() never wraps, time moves forward.
    EXPECT_LT(m.unreclaimed(), 1u << 30);
    EXPECT_GE(m.t_ms, prev_ms);
    prev_ms = m.t_ms;
  }
}

TEST(ScenarioEngine, PutMixDrivesReplaceTraffic) {
  // A put-heavy phase over a prefilled range must record puts, split them
  // into insert/replace outcomes (mostly replaces on a dense range), and
  // retire the displaced nodes.
  ScenarioSpec s = base("HML", "EpochPOP");
  s.phases.push_back(PhaseSpec{});
  s.phases[0].duration_ms = 60;
  s.phases[0].pct_insert = 0;
  s.phases[0].pct_erase = 0;
  s.phases[0].pct_put = 80;
  const auto r = run_scenario(s);
  EXPECT_GT(r.puts, 0u);
  EXPECT_GT(r.put_replaced, 0u);
  EXPECT_GT(r.gets, 0u);
  EXPECT_EQ(r.updates, r.puts);
  EXPECT_EQ(r.reads, r.gets);
  EXPECT_EQ(r.ops, r.reads + r.updates);
  // Every replace retired one displaced node.
  EXPECT_GE(r.smr.retired, r.put_replaced);
  EXPECT_EQ(r.rw_violations, 0u);
}

TEST(ScenarioEngine, ReadYourWritesModeValidatesCleanly) {
  // The engine's own validation rail: private key stripes + a per-worker
  // ledger. On a correct build no phase may record a violation — this is
  // the acceptance check for the put-replace path under every mix.
  for (const char* smr : {"EBR", "EpochPOP", "HazardPtrPOP", "NBR"}) {
    ScenarioSpec s = base("HML", smr);
    s.threads = 3;
    s.phases.push_back(PhaseSpec{});
    s.phases[0].duration_ms = 80;
    s.phases[0].pct_insert = 10;
    s.phases[0].pct_erase = 20;
    s.phases[0].pct_put = 40;
    s.phases[0].read_your_writes = true;
    const auto r = run_scenario(s);
    EXPECT_TRUE(r.warnings.empty()) << smr << ": " << r.warnings[0];
    EXPECT_GT(r.puts, 0u);
    EXPECT_EQ(r.rw_violations, 0u) << "read-your-writes broken under " << smr;
  }
}

TEST(ScenarioEngine, NormalizeDisablesUnsafeReadYourWrites) {
  // Stripes must not move between phases: mixed rw/non-rw schedules (or
  // differing thread counts) silently invalidate the ledger, so
  // normalize turns validation off with a warning instead.
  ScenarioSpec s = base("HML", "EBR");
  PhaseSpec a;
  a.read_your_writes = true;
  PhaseSpec b;  // not validating
  s.phases = {a, b};
  const auto warnings = normalize(s);
  EXPECT_FALSE(warnings.empty());
  EXPECT_FALSE(s.phases[0].read_your_writes);

  ScenarioSpec t = base("HML", "EBR");
  PhaseSpec c;
  c.read_your_writes = true;
  c.threads = 2;
  PhaseSpec d;
  d.read_your_writes = true;
  d.threads = 4;  // stripe map would shift
  t.phases = {c, d};
  const auto warnings2 = normalize(t);
  EXPECT_FALSE(warnings2.empty());
  EXPECT_FALSE(t.phases[0].read_your_writes);
  EXPECT_FALSE(t.phases[1].read_your_writes);
}

TEST(ScenarioEngine, NormalizeClampsPutMixOverflow) {
  ScenarioSpec s = base("HML", "NR");
  PhaseSpec p;
  p.pct_insert = 40;
  p.pct_erase = 40;
  p.pct_put = 40;  // 120% total
  s.phases.push_back(p);
  const auto warnings = normalize(s);
  EXPECT_FALSE(warnings.empty());
  EXPECT_EQ(s.phases[0].pct_put, 20u);
  EXPECT_LE(s.phases[0].pct_insert + s.phases[0].pct_erase +
                s.phases[0].pct_put,
            100u);
}

TEST(ScenarioEngine, NormalizeClampsInvalidSpecs) {
  ScenarioSpec s = base("HML", "NR");
  s.prefill = s.key_range * 2;  // over-asks the fill loops
  PhaseSpec p;
  p.pct_insert = 80;
  p.pct_erase = 80;  // used to wrap the dice range
  p.threads = -3;
  p.duration_ms = 0;
  s.phases.push_back(p);
  s.stall.enabled = true;
  s.stall.victim = 99;  // outside the pool
  s.stall.park_for_ms = 0;
  const auto warnings = normalize(s);
  EXPECT_GE(warnings.size(), 5u);
  EXPECT_EQ(s.prefill, s.key_range);
  EXPECT_LE(s.phases[0].pct_insert + s.phases[0].pct_erase, 100u);
  EXPECT_EQ(s.phases[0].threads, 1);
  EXPECT_EQ(s.phases[0].duration_ms, 1u);
  EXPECT_EQ(s.stall.victim, 0);
  EXPECT_EQ(s.stall.park_for_ms, 1u);
}

TEST(ScenarioEngine, NormalizeFillsDefaults) {
  ScenarioSpec s;  // no phases at all
  const auto warnings = normalize(s);
  EXPECT_TRUE(warnings.empty());
  ASSERT_EQ(s.phases.size(), 1u);
  EXPECT_EQ(s.phases[0].threads, s.threads);
}

TEST(ScenarioEngine, ClampedSpecStillRuns) {
  ScenarioSpec s = base("HML", "EBR");
  s.prefill = s.key_range * 4;
  s.phases.push_back(PhaseSpec{});
  s.phases[0].duration_ms = 30;
  s.phases[0].pct_insert = 90;
  s.phases[0].pct_erase = 90;
  const auto r = run_scenario(s);
  EXPECT_FALSE(r.warnings.empty());
  EXPECT_GT(r.ops, 0u);
  // Full prefill delivered: the structure starts at key_range keys.
  EXPECT_LE(r.final_size, s.key_range);
}

}  // namespace
}  // namespace pop::workload
