// The named scenario registry: every name builds a valid spec for every
// (ds, smr) pairing the matrix sweeps, descriptions exist, and a
// representative cell of each scenario actually executes in smoke mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "ds/iset.hpp"
#include "workload/scenario_engine.hpp"
#include "workload/scenarios.hpp"

namespace pop::workload {
namespace {

// TSan slows every operation ~10x but not the wall clock, so the smoke
// runs' ~30 ms phases can elapse before a slowed worker completes one op
// in each phase. Give sanitized builds full-length phases.
#if defined(__SANITIZE_THREAD__)
constexpr double kSmokeTimeScale = 1.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr double kSmokeTimeScale = 1.0;
#else
constexpr double kSmokeTimeScale = 0.2;
#endif
#else
constexpr double kSmokeTimeScale = 0.2;
#endif

TEST(Scenarios, RegistryListsAndDescribesEveryScenario) {
  const auto& registry = scenario_registry();
  ASSERT_GE(registry.size(), 5u);
  for (const auto& e : registry) {
    EXPECT_FALSE(e.description.empty()) << e.name;
    ASSERT_TRUE(make_scenario(e.name, {}).has_value()) << e.name;
    EXPECT_EQ(find_scenario(e.name), &e);
  }
}

TEST(Scenarios, UnknownNameIsRejected) {
  EXPECT_FALSE(make_scenario("no-such-scenario", {}).has_value());
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
  EXPECT_TRUE(select_scenarios("no-such-*").empty());
}

TEST(Scenarios, BuiltSpecsAreAlreadyNormalized) {
  // The registry's contract: normalize() would change nothing, for any
  // cell of the full (ds, smr) matrix at several thread counts.
  for (const auto& e : scenario_registry()) {
    const auto& name = e.name;
    for (const auto& ds : ds::all_ds_names()) {
      for (int threads : {1, 2, 8}) {
        ScenarioBuild b;
        b.ds = ds;
        b.smr = "EpochPOP";
        b.threads = threads;
        auto spec = make_scenario(name, b);
        ASSERT_TRUE(spec.has_value());
        const auto warnings = normalize(*spec);
        EXPECT_TRUE(warnings.empty())
            << name << "/" << ds << "/t" << threads << ": " << warnings[0];
        EXPECT_FALSE(spec->phases.empty());
      }
    }
  }
}

// A one-phase cell's identity: "DS key_range ins/ers/put duration_ms
// threshold C epoch_freq", plus " split" for Figure 4's reader/writer roles
// (writers on [0, 64)).
std::string identity(const ScenarioSpec& s) {
  const PhaseSpec& p = s.phases.at(0);
  std::string id = s.ds + " " + std::to_string(s.key_range) + " " +
                   std::to_string(p.pct_insert) + "/" +
                   std::to_string(p.pct_erase) + "/" +
                   std::to_string(p.pct_put);
  for (uint64_t v : {p.duration_ms, s.smr_cfg.retire_threshold,
                     s.smr_cfg.pop_multiplier, s.smr_cfg.epoch_freq}) {
    id += " " + std::to_string(v);
  }
  if (p.split_readers_writers && p.writer_key_range == 64) id += " split";
  return id;
}

// The paper's figure panels and ablation values: each entry's default
// threads and schemes ("" = every scheme) and its cell identity, as the
// standalone bench binaries ran them before the figures joined the
// registry.
struct FigureRow {
  const char* name;
  const char* threads;
  const char* smrs;
  const char* identity;
};

constexpr const char* kCrystal =
    "NR,BRC,EBR,HazardPtrPOP,HazardEraPOP,EpochPOP";
constexpr const char* kThr = "HazardPtrPOP,EpochPOP,HP,NBR";

const FigureRow kFigures[] = {
    {"fig1-dgt", "1,2,4", "", "DGT 8192 50/50/0 200 512 2 64"},
    {"fig1-hmht", "1,2,4", "", "HMHT 16384 50/50/0 200 512 2 64"},
    {"fig1-abt", "1,2,4", "", "ABT 65536 50/50/0 200 512 2 64"},
    {"fig2-hml", "1,2,4", "", "HML 2048 50/50/0 200 512 2 64"},
    {"fig2-ll", "1,2,4", "", "LL 2048 50/50/0 200 512 2 64"},
    {"fig3-abt", "1,2,4", "", "ABT 65536 5/5/0 200 512 2 64"},
    {"fig3-dgt", "1,2,4", "", "DGT 8192 5/5/0 200 512 2 64"},
    {"fig4-long-reads-10k", "4", "", "HML 10000 25/25/0 300 64 2 64 split"},
    {"fig4-long-reads-50k", "4", "", "HML 50000 25/25/0 300 64 2 64 split"},
    {"fig4-long-reads-100k", "4", "", "HML 100000 25/25/0 300 64 2 64 split"},
    {"fig5-abt-update", "2,4", "", "ABT 65536 50/50/0 150 512 2 64"},
    {"fig5-abt-read", "2,4", "", "ABT 65536 5/5/0 150 512 2 64"},
    {"fig6-dgt-update", "2,4", "", "DGT 8192 50/50/0 150 512 2 64"},
    {"fig6-dgt-read", "2,4", "", "DGT 8192 5/5/0 150 512 2 64"},
    {"fig7-hmht-update", "2,4", "", "HMHT 16384 50/50/0 150 512 2 64"},
    {"fig7-hmht-read", "2,4", "", "HMHT 16384 5/5/0 150 512 2 64"},
    {"fig8-hml-update", "2,4", "", "HML 2048 50/50/0 150 512 2 64"},
    {"fig8-hml-read", "2,4", "", "HML 2048 5/5/0 150 512 2 64"},
    {"fig9-ll-update", "2,4", "", "LL 2048 50/50/0 150 512 2 64"},
    {"fig9-ll-read", "2,4", "", "LL 2048 5/5/0 150 512 2 64"},
    {"fig10-hml-update", "1,2,4", kCrystal, "HML 2048 50/50/0 200 512 2 64"},
    {"fig10-hml-read", "1,2,4", kCrystal, "HML 2048 5/5/0 200 512 2 64"},
    {"fig11-hmht-update", "1,2,4", kCrystal,
     "HMHT 16384 50/50/0 200 512 2 64"},
    {"fig11-hmht-read", "1,2,4", kCrystal, "HMHT 16384 5/5/0 200 512 2 64"},
    {"ablation-oversubscription", "1,2,4,8,16,32",
     "HP,HPAsym,EBR,HazardPtrPOP,EpochPOP,NBR",
     "HMHT 16384 50/50/0 150 512 2 64"},
    {"ablation-threshold-32", "4", kThr, "HML 2048 50/50/0 150 32 2 64"},
    {"ablation-threshold-128", "4", kThr, "HML 2048 50/50/0 150 128 2 64"},
    {"ablation-threshold-512", "4", kThr, "HML 2048 50/50/0 150 512 2 64"},
    {"ablation-threshold-2048", "4", kThr, "HML 2048 50/50/0 150 2048 2 64"},
    {"ablation-threshold-8192", "4", kThr, "HML 2048 50/50/0 150 8192 2 64"},
    {"ablation-pop-multiplier-2", "4", "EpochPOP",
     "HMHT 16384 50/50/0 150 256 2 64"},
    {"ablation-pop-multiplier-4", "4", "EpochPOP",
     "HMHT 16384 50/50/0 150 256 4 64"},
    {"ablation-pop-multiplier-8", "4", "EpochPOP",
     "HMHT 16384 50/50/0 150 256 8 64"},
    {"ablation-epoch-freq-1", "4", "EBR,EpochPOP",
     "DGT 8192 50/50/0 150 512 2 1"},
    {"ablation-epoch-freq-16", "4", "EBR,EpochPOP",
     "DGT 8192 50/50/0 150 512 2 16"},
    {"ablation-epoch-freq-64", "4", "EBR,EpochPOP",
     "DGT 8192 50/50/0 150 512 2 64"},
    {"ablation-epoch-freq-256", "4", "EBR,EpochPOP",
     "DGT 8192 50/50/0 150 512 2 256"},
};

TEST(Scenarios, FigureEntriesKeepTheirCellIdentity) {
  for (const FigureRow& f : kFigures) {
    const ScenarioEntry* e = find_scenario(f.name);
    ASSERT_NE(e, nullptr) << f.name;
    EXPECT_EQ(e->threads, f.threads) << f.name;
    EXPECT_EQ(e->smrs, f.smrs) << f.name;
    EXPECT_FALSE(e->in_all) << f.name;
    ScenarioBuild b;
    b.ds = e->ds;
    const auto spec = make_scenario(f.name, b);
    EXPECT_EQ(identity(*spec), f.identity) << f.name;
    // Uniform keys, half the range prefilled, no timeline sampler: the
    // standalone binaries' one-phase cell.
    EXPECT_EQ(spec->phases.size(), 1u) << f.name;
    EXPECT_EQ(spec->phases[0].keys.kind, KeyDist::kUniform) << f.name;
    EXPECT_EQ(spec->prefill, UINT64_MAX) << f.name;
    EXPECT_EQ(spec->mem_sample_every_ms, 0u) << f.name;
  }
  // Every figure and ablation entry is pinned above; the rest outside
  // `all` are the sweeps: kv-put-{0,10,50,90}, grow-storm-{1,16,64} and
  // signal-loss.
  size_t outside_all = 0;
  for (const auto& e : scenario_registry()) outside_all += e.in_all ? 0 : 1;
  EXPECT_EQ(outside_all, std::size(kFigures) + 4 + 3 + 1);
}

TEST(Scenarios, KvPutEntriesSetTheirPutRatio) {
  for (const uint32_t pct : {0u, 10u, 50u, 90u}) {
    const std::string name = "kv-put-" + std::to_string(pct);
    const ScenarioEntry* e = find_scenario(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_EQ(e->ds, "HML,HMHT");
    EXPECT_FALSE(e->in_all);
    for (const char* ds : {"HML", "HMHT"}) {
      ScenarioBuild b;
      b.ds = ds;
      const auto spec = make_scenario(name, b);
      // A 5/5 insert/erase background over the cell's default range.
      EXPECT_EQ(identity(*spec), std::string(ds) +
                                     (b.ds == "HML" ? " 2048" : " 16384") +
                                     " 5/5/" + std::to_string(pct) +
                                     " 200 512 2 64")
          << name;
    }
  }
}

TEST(Scenarios, GrowStormProvisionsRhhtShortAndHmhtFull) {
  for (const uint64_t d : {1u, 16u, 64u}) {
    const std::string name = "grow-storm-" + std::to_string(d);
    const ScenarioEntry* e = find_scenario(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_EQ(e->ds, "HMHT,RHHT");
    EXPECT_FALSE(e->in_all);
    ScenarioBuild b;
    b.key_range = 2048;
    b.ds = "RHHT";
    const auto rhht = make_scenario(name, b);
    b.ds = "HMHT";
    const auto hmht = make_scenario(name, b);
    EXPECT_EQ(rhht->initial_capacity, 2048 / d) << name;
    EXPECT_EQ(hmht->initial_capacity, 2048u) << name;
    for (const auto* spec : {&*rhht, &*hmht}) {
      EXPECT_EQ(spec->prefill, 0u) << name;
      ASSERT_EQ(spec->phases.size(), 2u) << name;
      EXPECT_EQ(spec->phases[0].name, "storm");
      EXPECT_EQ(spec->phases[1].name, "steady");
    }
  }
}

TEST(Scenarios, SignalLossDropsPingsUntilTheParkEnds) {
  const auto spec = make_scenario("signal-loss", ScenarioBuild{});
  const auto stall = make_scenario("stall-recovery", ScenarioBuild{});
  ASSERT_TRUE(spec.has_value() && stall.has_value());
  EXPECT_FALSE(find_scenario("signal-loss")->in_all);
  EXPECT_TRUE(spec->faults.signal_loss);
  EXPECT_EQ(spec->faults.signal_loss_pct, 100);
  EXPECT_EQ(spec->faults.signal_loss_stop_after_ms,
            spec->stall.park_after_ms + spec->stall.park_for_ms);
  EXPECT_EQ(spec->smr_cfg.retire_threshold, 64u);
  // stall-recovery's schedule, unchanged.
  ASSERT_TRUE(spec->stall.enabled);
  EXPECT_EQ(spec->stall.park_for_ms, stall->stall.park_for_ms);
  EXPECT_EQ(spec->phases.size(), stall->phases.size());
  EXPECT_FALSE(stall->faults.signal_loss);
}

TEST(Scenarios, SelectionByAllAndGlob) {
  // `all` is the robustness matrix CI's scenario-smoke runs; the figures
  // join it only by name or glob.
  const auto all = select_scenarios("all");
  ASSERT_EQ(all.size(), 12u);
  for (const auto* e : all) EXPECT_TRUE(e->in_all) << e->name;
  const auto fig2 = select_scenarios("fig2-*");
  ASSERT_EQ(fig2.size(), 2u);
  EXPECT_EQ(fig2[0]->name, "fig2-hml");
  EXPECT_EQ(fig2[1]->name, "fig2-ll");
  EXPECT_EQ(select_scenarios("fig1[01]-*").size(), 4u);
  EXPECT_EQ(select_scenarios("fig*").size(), 24u);
  EXPECT_EQ(select_scenarios("ablation-*").size(), 13u);
  // ablation_thresholds' three sweeps, without the oversubscription one.
  EXPECT_EQ(select_scenarios("ablation-[tpe]*").size(), 12u);
  EXPECT_EQ(select_scenarios("stall-recovery").size(), 1u);
  EXPECT_EQ(select_scenarios("kv-put-*").size(), 4u);
  EXPECT_EQ(select_scenarios("grow-storm-*").size(), 3u);
}

TEST(Scenarios, DurationSetsTheCellLength) {
  ScenarioBuild b;
  b.duration_ms = 70;
  b.time_scale = 0.25;  // an explicit length wins over the smoke scale
  for (const char* name : {"fig4-long-reads-10k", "ablation-threshold-32"}) {
    const auto spec = make_scenario(name, b);
    ASSERT_TRUE(spec.has_value());
    ASSERT_EQ(spec->phases.size(), 1u) << name;
    EXPECT_EQ(spec->phases[0].duration_ms, 70u) << name;
  }
  // The robustness entries keep their own schedules.
  ScenarioBuild plain = b;
  plain.duration_ms = 0;
  const auto stall = make_scenario("stall-recovery", b);
  const auto own = make_scenario("stall-recovery", plain);
  ASSERT_EQ(stall->phases.size(), own->phases.size());
  for (size_t i = 0; i < own->phases.size(); ++i) {
    EXPECT_EQ(stall->phases[i].duration_ms, own->phases[i].duration_ms);
  }
}

TEST(Scenarios, BuildKnobsPropagate) {
  ScenarioBuild b;
  b.ds = "HMHT";
  b.smr = "NBR";
  b.threads = 6;
  b.key_range = 1024;
  b.shards = 2;
  b.time_scale = 0.5;
  auto full = make_scenario("stall-recovery", ScenarioBuild{});
  auto spec = make_scenario("stall-recovery", b);
  ASSERT_TRUE(spec.has_value() && full.has_value());
  EXPECT_EQ(spec->ds, "HMHT");
  EXPECT_EQ(spec->smr, "NBR");
  EXPECT_EQ(spec->threads, 6);
  EXPECT_EQ(spec->key_range, 1024u);
  EXPECT_EQ(spec->shards, 2);
  // No shard count in the cell: the entry's own (4 for sharded-*).
  EXPECT_EQ(full->shards, 1);
  EXPECT_EQ(make_scenario("sharded-hotspot", ScenarioBuild{})->shards, 4);
  EXPECT_TRUE(spec->stall.enabled);
  EXPECT_GT(spec->mem_sample_every_ms, 0u);
  // Half time scale shrinks the schedule.
  EXPECT_LT(spec->phases[0].duration_ms, full->phases[0].duration_ms);
}

TEST(Scenarios, HotspotChurnSmokeRunCycles) {
  ScenarioBuild b;
  b.ds = "HML";
  b.smr = "HazardPtrPOP";
  b.threads = 2;
  b.time_scale = kSmokeTimeScale;
  b.key_range = 256;
  auto spec = make_scenario("hotspot-churn", b);
  ASSERT_TRUE(spec.has_value());
  spec->smr_cfg.retire_threshold = 32;
  const auto r = run_scenario(*spec);
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.churn_cycles, 0u);
  EXPECT_FALSE(r.samples.empty());
}

TEST(Scenarios, OversubscribedBurstSmokeRunsAllPhases) {
  ScenarioBuild b;
  b.ds = "HMHT";
  b.smr = "EpochPOP";
  b.threads = 2;
  // Longer phases than the other smokes: with an 8-thread burst past the
  // core count, a ~30 ms phase can starve a worker of its first op when
  // another suite shares the machine (ctest -j), reading as 0 phase ops.
  b.time_scale = kSmokeTimeScale * 3.0;
  b.key_range = 512;
  auto spec = make_scenario("oversubscribed-burst", b);
  ASSERT_TRUE(spec.has_value());
  spec->smr_cfg.retire_threshold = 32;
  const auto r = run_scenario(*spec);
  ASSERT_EQ(r.phases.size(), 3u);
  EXPECT_EQ(r.phases[0].threads, 8);  // 4x burst
  for (const auto& p : r.phases) EXPECT_GT(p.ops, 0u) << p.name;
}

TEST(Scenarios, KvUpdateHeavySmokeDrivesReplaceTraffic) {
  ScenarioBuild b;
  b.ds = "HML";
  b.smr = "EpochPOP";
  b.threads = 2;
  b.time_scale = kSmokeTimeScale;
  b.key_range = 256;
  auto spec = make_scenario("kv-update-heavy", b);
  ASSERT_TRUE(spec.has_value());
  spec->smr_cfg.retire_threshold = 32;
  const auto r = run_scenario(*spec);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_GT(r.phases[0].puts, 0u) << "put-heavy phase records put traffic";
  EXPECT_GT(r.phases[0].put_replaced, 0u)
      << "a prefilled range makes most puts replaces";
  EXPECT_GT(r.phases[1].gets, 0u) << "get-heavy phase reads values back";
  // Displaced nodes flow through the domain: at least one per replace.
  EXPECT_GE(r.smr.retired, r.put_replaced);
  EXPECT_EQ(r.rw_violations, 0u);
}

TEST(Scenarios, ZombieStormSmokeKillsAndReaps) {
  ScenarioBuild b;
  b.ds = "HML";
  b.smr = "EpochPOP";
  b.threads = 3;
  b.time_scale = kSmokeTimeScale;
  b.key_range = 256;
  auto spec = make_scenario("zombie-storm", b);
  ASSERT_TRUE(spec.has_value());
  ASSERT_TRUE(spec->faults.thread_kill);
  ASSERT_TRUE(spec->faults.kill_zombie);
  // A low threshold keeps reclaim passes (the reaper's only vehicle)
  // frequent inside the short smoke window.
  spec->smr_cfg.retire_threshold = 16;
  const auto r = run_scenario(*spec);
  EXPECT_GT(r.ops, 0u);
  EXPECT_GE(r.kills, 1u) << "the injector never fired";
  EXPECT_GE(r.smr.tids_reaped, 1u)
      << "no corpse was ever certified: the reaper never ran";
}

TEST(Scenarios, PressureBackstopSmokeForcesPasses) {
  ScenarioBuild b;
  b.ds = "HML";
  b.smr = "EBR";  // the non-robust scheme: a parked victim pins everything
  b.threads = 3;
  b.time_scale = kSmokeTimeScale;
  b.key_range = 256;
  auto spec = make_scenario("pressure-backstop", b);
  ASSERT_TRUE(spec.has_value());
  ASSERT_TRUE(spec->stall.enabled);
  ASSERT_GT(spec->smr_cfg.pressure_bound, 0u);
  // Shrink threshold and bound together so the stall window reliably
  // crosses the bound even on a loaded CI machine.
  spec->smr_cfg.retire_threshold = 32;
  spec->smr_cfg.pressure_bound =
      spec->smr_cfg.retire_threshold * static_cast<uint64_t>(spec->threads) * 2;
  const auto r = run_scenario(*spec);
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.smr.pressure_events, 0u)
      << "unreclaimed never crossed the bound; the backstop was idle";
  EXPECT_GT(r.smr.forced_handshakes, 0u);
  // Graceful degradation, not enforcement: the run finished (liveness)
  // and by teardown the backlog drained below where the stall pushed it.
  EXPECT_LT(r.final_unreclaimed, std::max<uint64_t>(r.stall_peak_unreclaimed,
                                                    1));
}

}  // namespace
}  // namespace pop::workload
