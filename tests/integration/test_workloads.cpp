// End-to-end runs of one-phase workloads through the scenario engine —
// the shape of every figure cell — across representative configurations,
// checking the metrics the figures are built from (throughput > 0,
// retire-list bounds, signal counts), plus the bench env-list knobs.
#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>

#include "../../bench/cli.hpp"
#include "ds/iset.hpp"
#include "workload/scenario_engine.hpp"
#include "workload/scenarios.hpp"

namespace pop::bench {
namespace {

using workload::ScenarioSpec;

ScenarioSpec base(const std::string& ds, const std::string& smr) {
  ScenarioSpec s;
  s.ds = ds;
  s.smr = smr;
  s.threads = 2;
  s.key_range = 256;
  s.smr_cfg.retire_threshold = 32;
  s.phases.emplace_back();
  s.phases[0].duration_ms = 60;
  return s;
}

workload::PhaseSpec& phase(ScenarioSpec& s) { return s.phases[0]; }

TEST(Workloads, UpdateHeavyRunsForEveryScheme) {
  for (const auto& smr : ds::all_smr_names()) {
    ScenarioSpec s = base("HML", smr);
    phase(s).pct_insert = 50;
    phase(s).pct_erase = 50;
    const auto r = workload::run_scenario(s);
    EXPECT_GT(r.ops, 0u) << smr;
    EXPECT_GT(r.mops, 0.0) << smr;
    EXPECT_LE(r.final_size, s.key_range) << smr;
  }
}

TEST(Workloads, ReadHeavyMixRespectsRatios) {
  ScenarioSpec s = base("HMHT", "EpochPOP");
  phase(s).pct_insert = 5;
  phase(s).pct_erase = 5;
  phase(s).duration_ms = 100;
  const auto r = workload::run_scenario(s);
  ASSERT_GT(r.ops, 1000u);
  const double read_frac =
      static_cast<double>(r.reads) / static_cast<double>(r.ops);
  EXPECT_NEAR(read_frac, 0.90, 0.05);
}

TEST(Workloads, SplitReadersWritersReportsReadThroughput) {
  ScenarioSpec s = base("HML", "HazardPtrPOP");
  phase(s).split_readers_writers = true;
  s.threads = 4;
  s.key_range = 512;
  phase(s).writer_key_range = 32;
  const auto r = workload::run_scenario(s);
  EXPECT_GT(r.reads, 0u);
  EXPECT_GT(r.updates, 0u);
  EXPECT_GT(r.read_mops, 0.0);
}

TEST(Workloads, RetireThresholdBoundsRetireList) {
  ScenarioSpec s = base("DGT", "HazardPtrPOP");
  phase(s).pct_insert = 50;
  phase(s).pct_erase = 50;
  s.smr_cfg.retire_threshold = 64;
  const auto r = workload::run_scenario(s);
  // A delete retires 2 nodes, so the high-watermark may exceed the
  // threshold by the per-op retire count but not run away.
  EXPECT_LE(r.smr.max_retire_len, s.smr_cfg.retire_threshold + 8);
}

TEST(Workloads, PopSchemesSendSignalsOnlyWhenReclaiming) {
  ScenarioSpec s = base("HML", "HazardPtrPOP");
  phase(s).pct_insert = 0;
  phase(s).pct_erase = 0;  // read-only: nothing retired, nobody pings
  const auto r = workload::run_scenario(s);
  EXPECT_EQ(r.smr.signals_sent, 0u);
  EXPECT_EQ(r.smr.retired, 0u);
}

TEST(Workloads, UpdateHeavyPopSchemesDoSignal) {
  ScenarioSpec s = base("HML", "HazardPtrPOP");
  phase(s).pct_insert = 50;
  phase(s).pct_erase = 50;
  s.smr_cfg.retire_threshold = 16;
  const auto r = workload::run_scenario(s);
  EXPECT_GT(r.smr.signals_sent, 0u);
  EXPECT_GT(r.smr.freed, 0u);
}

TEST(Workloads, NbrNeutralizesUnderChurn) {
  ScenarioSpec s = base("HML", "NBR");
  phase(s).split_readers_writers = true;
  s.threads = 4;
  s.key_range = 4096;  // long traversals for the readers
  phase(s).writer_key_range = 16;
  s.smr_cfg.retire_threshold = 16;  // constant reclaims => constant pings
  phase(s).duration_ms = 150;
  const auto r = workload::run_scenario(s);
  EXPECT_GT(r.smr.neutralized, 0u)
      << "long readers must get restarted by NBR reclaimers";
}

TEST(Workloads, PutMixReportsTheKvBreakdown) {
  // pct_put set on the phase's OpMix reaches the workers and the KV
  // breakdown comes back through the shared OpCounts base.
  ScenarioSpec s = base("HMHT", "EpochPOP");
  phase(s).pct_insert = 5;
  phase(s).pct_erase = 5;
  phase(s).pct_put = 50;
  const auto r = workload::run_scenario(s);
  ASSERT_GT(r.ops, 0u);
  EXPECT_GT(r.puts, 0u);
  EXPECT_GT(r.put_replaced, 0u);
  EXPECT_EQ(r.updates, r.inserts + r.erases + r.puts);
  EXPECT_EQ(r.reads, r.gets);
  EXPECT_GE(r.smr.retired, r.put_replaced);
}

TEST(Workloads, EnvListHelpersParse) {
  setenv("POPSMR_BENCH_THREADS", "1,3,5", 1);
  const auto ts = bench_thread_list("2,4");
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0], 1);
  EXPECT_EQ(ts[2], 5);
  unsetenv("POPSMR_BENCH_THREADS");
  const auto ts2 = bench_thread_list("2,4");
  ASSERT_EQ(ts2.size(), 2u);
  EXPECT_EQ(ts2[1], 4);
  EXPECT_FALSE(bench_smr_list().empty());
}

TEST(Workloads, CountListDropsBelowOneAndSaturates) {
  unsetenv("POPSMR_BENCH_SHARDS");
  EXPECT_EQ(bench_shard_list("1,4"), (std::vector<int>{1, 4}));
  // A 20-digit value saturates instead of wrapping; 0 and negatives drop.
  setenv("POPSMR_BENCH_SHARDS", "0,-4,16,99999999999999999999", 1);
  EXPECT_EQ(bench_shard_list("1,4"), (std::vector<int>{16, INT_MAX}));
  // Nothing usable left: the default list, not a single stand-in value.
  setenv("POPSMR_BENCH_SHARDS", "0,x", 1);
  EXPECT_EQ(bench_shard_list("1,4"), (std::vector<int>{1, 4}));
  unsetenv("POPSMR_BENCH_SHARDS");
}

TEST(Workloads, ShardListReachesTheSpec) {
  // bench_scenarios' fourth axis: each --shards / POPSMR_BENCH_SHARDS
  // value is one cell's shard count, over the entry's own default.
  setenv("POPSMR_BENCH_SHARDS", "1,2,8", 1);
  std::vector<int> shards;
  for (const int n : bench_shard_list("4")) {
    workload::ScenarioBuild b;
    b.shards = n;
    shards.push_back(workload::make_scenario("kv-put-50", b)->shards);
  }
  unsetenv("POPSMR_BENCH_SHARDS");
  EXPECT_EQ(shards, (std::vector<int>{1, 2, 8}));
}

TEST(Workloads, NameListsDefaultToTheCallersList) {
  unsetenv("POPSMR_BENCH_SMRS");
  unsetenv("POPSMR_BENCH_DS");
  EXPECT_EQ(bench_smr_list(), ds::all_smr_names());
  EXPECT_EQ(bench_smr_list("EBR,NR"), (std::vector<std::string>{"EBR", "NR"}));
  EXPECT_EQ(bench_ds_list("DGT"), (std::vector<std::string>{"DGT"}));
  setenv("POPSMR_BENCH_DS", "HML,LL", 1);
  EXPECT_EQ(bench_ds_list("DGT"), (std::vector<std::string>{"HML", "LL"}));
  unsetenv("POPSMR_BENCH_DS");
}

}  // namespace
}  // namespace pop::bench
