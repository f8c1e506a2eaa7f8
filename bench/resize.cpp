// bench_resize: the initial-capacity-deficit sweep for the resizable
// hash table. Every cell runs the same two-phase spec — a "storm" phase
// (insert/put heavy, filling the key range from a cold, under-provisioned
// table) followed by a "steady" phase (mixed traffic over the now-full
// range) — and the sweep varies how badly the table was provisioned:
// deficit D means initial_capacity = key_range / D, so D = 1 is a
// correctly provisioned table and D = 64 forces ~6 doublings mid-storm.
//
// The reference cell per (smr, threads) is a correctly-provisioned fixed
// HMHT: its steady-phase throughput is the bar, and every RHHT row
// reports recovery_pct = steady / reference — the claim under test being
// that after the grow storm the resizable table recovers to within ~10%
// of a table that was sized right from the start.
//
//   bench_resize                                  # deficits 1,16,64
//   bench_resize --smr EBR,EpochPOP --threads 4
//   bench_resize --short                          # CI smoke cell
//
// With POPSMR_BENCH_JSON (or --json) set, every cell appends one
// kind-tagged "resize" JSONL row (deficit, grows/shrinks/buckets_final,
// storm/steady split, recovery_pct, retired/freed).
#include <algorithm>
#include <cstdint>
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

ScenarioSpec make_spec(const std::string& ds, const std::string& smr,
                       int threads, uint64_t key_range, uint64_t deficit,
                       uint64_t duration_ms) {
  ScenarioSpec spec;
  spec.name = "grow-storm";
  spec.ds = ds;
  spec.smr = smr;
  spec.threads = threads;
  spec.key_range = key_range;
  spec.prefill = 0;  // the storm IS the fill: growth happens under load
  spec.initial_capacity = std::max<uint64_t>(2, key_range / deficit);
  PhaseSpec storm;
  storm.name = "storm";
  storm.duration_ms = duration_ms;
  storm.pct_insert = 70;
  storm.pct_erase = 0;
  storm.pct_put = 20;
  PhaseSpec steady;
  steady.name = "steady";
  steady.duration_ms = duration_ms;
  steady.pct_insert = 10;
  steady.pct_erase = 10;
  steady.pct_put = 20;
  spec.phases.push_back(storm);
  spec.phases.push_back(steady);
  return spec;
}

void print_header() {
  std::printf("\n# resize sweep: deficit D provisions the table for "
              "key_range/D keys; recovery%% compares steady-phase Mops to "
              "a correctly-provisioned fixed HMHT\n");
  std::printf("%-5s %-13s %3s %7s %6s %7s %8s %9s %10s %9s %9s\n", "ds",
              "smr", "thr", "deficit", "grows", "shrinks", "buckets",
              "stormMops", "steadyMops", "recov%", "unreclaim");
  std::fflush(stdout);
}

void print_cell(const ScenarioSpec& spec, uint64_t deficit, double storm,
                double steady, double recovery, const ScenarioResult& r) {
  std::printf("%-5s %-13s %3d %7llu %6llu %7llu %8llu %9.3f %10.3f %9.1f "
              "%9llu\n",
              spec.ds.c_str(), spec.smr.c_str(), spec.threads,
              static_cast<unsigned long long>(deficit),
              static_cast<unsigned long long>(r.grows),
              static_cast<unsigned long long>(r.shrinks),
              static_cast<unsigned long long>(r.buckets_final), storm, steady,
              recovery, static_cast<unsigned long long>(r.final_unreclaimed));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = apply_bench_cli(argc, argv);
  if (cli.list) {
    std::printf("bench_resize sweeps POPSMR_BENCH_DEFICITS (default "
                "1,16,64) against a fixed-HMHT reference; it has no named "
                "scenarios\n");
    return 0;
  }

  const auto smrs = bench_smr_list();
  const auto threads = bench_thread_list("4");
  const auto deficits = bench_deficit_list("1,16,64");
  obs::JsonlFile out(runtime::env_str("POPSMR_BENCH_JSON", ""));
  const uint64_t duration = bench_duration_ms(cli.short_mode ? 50 : 200);
  const uint64_t key_range = cli.short_mode ? 2048 : 16384;

  print_header();
  for (int t : threads) {
    for (const auto& smr : smrs) {
      // Reference: a fixed table provisioned for the full key range.
      ScenarioSpec ref = make_spec("HMHT", smr, t, key_range, 1, duration);
      for (const auto& w : normalize(ref)) {
        std::fprintf(stderr, "bench_resize: %s\n", w.c_str());
      }
      const ScenarioResult rr = run_scenario(ref);
      const double ref_steady = rr.phases.size() > 1 ? rr.phases[1].mops : 0;
      print_cell(ref, 1, rr.phases[0].mops, ref_steady, 100.0, rr);
      out.write(resize_row, ref, 1, rr.phases[0].mops, ref_steady, 100.0, rr);

      for (const int d : deficits) {
        ScenarioSpec spec = make_spec("RHHT", smr, t, key_range, d, duration);
        for (const auto& w : normalize(spec)) {
          std::fprintf(stderr, "bench_resize: %s\n", w.c_str());
        }
        const ScenarioResult r = run_scenario(spec);
        const double steady = r.phases.size() > 1 ? r.phases[1].mops : 0;
        const double recovery =
            ref_steady > 0 ? 100.0 * steady / ref_steady : 0;
        print_cell(spec, d, r.phases[0].mops, steady, recovery, r);
        out.write(resize_row, spec, d, r.phases[0].mops, steady, recovery, r);
      }
    }
  }
  return 0;
}
