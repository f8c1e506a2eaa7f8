// bench_kv: the value-carrying map sweep. Runs a one-phase uniform KV
// workload per (ds, smr, threads) cell at every put ratio in the sweep —
// put is insert-or-replace, and every replace retires the displaced node
// through the cell's SMR domain, so raising the put ratio dials up the
// short-lived-node reclamation traffic class that set-only benchmarks
// (insert/erase only) never produce. The remainder of the mix is get()
// with a small fixed insert/erase background so the key population keeps
// churning.
//
//   bench_kv                                      # pct_put in {0,10,50,90}
//   bench_kv --ds HMHT --smr EBR,EpochPOP --threads 4
//   bench_kv --pct-put 0,50 --shards 4            # sharded cells
//   bench_kv --short                              # CI smoke cell
//
// With POPSMR_BENCH_JSON (or --json) set, every cell appends one
// kind-tagged "kv" JSONL row (per-op outcome breakdown: gets/get_hits,
// puts/put_replaced, retired/freed) plus one "shard" row per shard when
// the cell runs sharded.
#include <cstdio>
#include <string>
#include <vector>

#include "cli.hpp"
#include "runtime/env.hpp"
#include "workload/rows.hpp"
#include "workload/scenario_engine.hpp"

namespace {

using namespace pop;
using namespace pop::bench;
using namespace pop::workload;

void print_header() {
  std::printf("\n# kv put-ratio sweep: put = insert-or-replace; each "
              "replace retires one displaced node\n");
  std::printf("%-5s %-13s %3s %6s %7s %8s %9s %10s %11s %10s %9s\n", "ds",
              "smr", "thr", "shards", "putPct", "Mops", "getHit%",
              "putRepl%", "retired", "unreclaim", "signals");
  std::fflush(stdout);
}

void print_cell(const ScenarioSpec& spec, uint32_t pct_put,
                const ScenarioResult& r) {
  const double hit_pct =
      r.gets > 0 ? 100.0 * static_cast<double>(r.get_hits) /
                       static_cast<double>(r.gets)
                 : 0.0;
  const double repl_pct =
      r.puts > 0 ? 100.0 * static_cast<double>(r.put_replaced) /
                       static_cast<double>(r.puts)
                 : 0.0;
  std::printf("%-5s %-13s %3d %6d %7u %8.3f %9.1f %10.1f %11llu %10llu "
              "%9llu\n",
              spec.ds.c_str(), spec.smr.c_str(), spec.threads, spec.shards,
              pct_put, r.mops, hit_pct, repl_pct,
              static_cast<unsigned long long>(r.smr.retired),
              static_cast<unsigned long long>(r.final_unreclaimed),
              static_cast<unsigned long long>(r.smr.signals_sent));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = apply_bench_cli(argc, argv);
  if (cli.list) {
    std::printf("bench_kv sweeps --pct-put (default 0,10,50,90); it has no "
                "named scenarios\n");
    return 0;
  }

  const auto ds_list = bench_ds_list("HML,HMHT");
  const auto smrs = bench_smr_list();
  const auto threads = bench_thread_list("4");
  const auto put_ratios = bench_pct_put_list("0,10,50,90");
  const auto shard_counts = bench_shard_list("1");
  obs::JsonlFile out(runtime::env_str("POPSMR_BENCH_JSON", ""));
  const uint64_t duration = bench_duration_ms(cli.short_mode ? 50 : 200);

  print_header();
  for (const auto& ds : ds_list) {
    for (int t : threads) {
      for (const auto& smr : smrs) {
        for (int shards : shard_counts) {
          for (int pct_put : put_ratios) {
            ScenarioSpec spec;
            spec.name = "kv-sweep";
            spec.ds = ds;
            spec.smr = smr;
            spec.threads = t;
            spec.shards = shards;
            spec.key_range = cli.short_mode ? 512
                             : (ds == "HML" || ds == "LL") ? 2048
                                                           : 16384;
            PhaseSpec ph;
            ph.name = "kv";
            ph.duration_ms = duration;
            // Fixed 5/5 insert/erase background keeps membership churning
            // so puts keep splitting into insert vs replace outcomes; a
            // ratio above 90 is clamped (with a warning) by normalize.
            ph.pct_insert = 5;
            ph.pct_erase = 5;
            ph.pct_put = static_cast<uint32_t>(pct_put);
            spec.phases.push_back(ph);
            // Report what actually runs (run_scenario clamps a private
            // copy; see bench_sharded for the rationale).
            for (const auto& w : normalize(spec)) {
              std::fprintf(stderr, "bench_kv: %s\n", w.c_str());
            }
            const auto r = run_scenario(spec);
            print_cell(spec, spec.phases[0].pct_put, r);
            out.write(kv_row, spec, spec.phases[0].pct_put, r);
            for (const auto& l : r.latency) out.write(latency_row, spec, l);
            for (const auto& s : r.service.shards) {
              out.write(shard_row, spec, s);
            }
          }
        }
      }
    }
  }
  return 0;
}
