// bench_sharded: the service-layer scale sweep. Runs a named scenario
// (default sharded-uniform; sharded-hotspot shows a hot shard under
// Zipfian keys) per (ds, smr, threads) cell at every shard count in the
// sweep — throughput should rise with shard count once a single domain's
// contention (retire lists, wave membership, epoch advances) saturates,
// and the per-shard ops spread shows how evenly the hash spreads load.
//
//   bench_sharded                                  # sharded-uniform sweep
//   bench_sharded --scenario sharded-hotspot --smr EpochPOP --threads 8
//   bench_sharded --shards 1,2,4,8 --shard-hash modulo
//   bench_sharded --short                          # CI smoke cell
//
// With POPSMR_BENCH_JSON (or --json) set, every cell appends one
// kind-tagged "sharded" JSONL summary row plus one "shard" row per shard
// (per-shard routed ops / retired / freed / unreclaimed).
#include <cstdio>
#include <string>
#include <vector>

#include "cli.hpp"
#include "runtime/env.hpp"
#include "workload/rows.hpp"
#include "workload/scenario_engine.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace pop;
using namespace pop::bench;
using namespace pop::workload;

void print_header(const ScenarioEntry& e, const std::string& hash) {
  std::printf("\n# scenario %s (shard hash %s): %s\n", e.name.c_str(),
              hash.c_str(), e.description.c_str());
  std::printf("%-5s %-13s %3s %6s %8s %9s %10s %9s %10s %10s\n", "ds", "smr",
              "thr", "shards", "Mops", "readMops", "unreclaimed", "signals",
              "maxShardOp", "minShardOp");
  std::fflush(stdout);
}

void print_cell(const ScenarioSpec& spec, const ScenarioResult& r) {
  std::printf("%-5s %-13s %3d %6d %8.3f %9.3f %10llu %9llu %10llu %10llu\n",
              spec.ds.c_str(), spec.smr.c_str(), spec.threads, spec.shards,
              r.mops, r.read_mops,
              static_cast<unsigned long long>(r.final_unreclaimed),
              static_cast<unsigned long long>(r.smr.signals_sent),
              static_cast<unsigned long long>(r.service.ops_max_shard()),
              static_cast<unsigned long long>(r.service.ops_min_shard()));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = apply_bench_cli(argc, argv);

  if (cli.list) {
    for (const auto& e : scenario_registry()) {
      std::printf("%-26s %s\n", e.name.c_str(), e.description.c_str());
    }
    return 0;
  }

  const auto selected = select_scenarios(
      cli.scenario.empty()    ? "sharded-uniform"
      : cli.scenario == "all" ? "sharded-*"
                              : cli.scenario);
  if (selected.empty()) {
    std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                 cli.scenario.c_str());
    return 2;
  }

  const auto ds_list = bench_ds_list("HML");
  const auto smrs = bench_smr_list();
  const auto threads = bench_thread_list("8");
  const auto shard_counts = bench_shard_list("1,2,4,8");
  const std::string hash = runtime::env_str("POPSMR_SHARD_HASH", "splitmix");
  obs::JsonlFile out(runtime::env_str("POPSMR_BENCH_JSON", ""));

  for (const ScenarioEntry* e : selected) {
    print_header(*e, hash);
    for (const auto& ds : ds_list) {
      for (int t : threads) {
        for (const auto& smr : smrs) {
          for (int shards : shard_counts) {
            ScenarioBuild b;
            b.ds = ds;
            b.smr = smr;
            b.threads = t;
            b.shards = shards;
            if (cli.short_mode) {
              // ~50 ms phases over a small universe: the CI smoke cell.
              b.time_scale = 0.25;
              b.key_range = 512;
            }
            auto spec = make_scenario(e->name, b);
            spec->shard_hash = hash;
            // This binary emits no mem_sample rows, so don't pay for the
            // background sampler (its per-cadence stats sweeps would also
            // perturb the throughput-vs-shard-count comparison).
            spec->mem_sample_every_ms = 0;
            // Normalize BEFORE reporting: run_scenario clamps a private
            // copy, so printing the raw spec would attribute results to a
            // configuration (e.g. --shards beyond the key range, a typo'd
            // --shard-hash) that never actually ran.
            for (const auto& w : normalize(*spec)) {
              std::fprintf(stderr, "bench_sharded %s: %s\n", e->name.c_str(),
                           w.c_str());
            }
            const auto r = run_scenario(*spec);
            print_cell(*spec, r);
            out.write(sharded_row, *spec, r);
            for (const auto& s : r.service.shards) {
              out.write(shard_row, *spec, s);
            }
          }
        }
      }
    }
  }
  return 0;
}
