// bench_scenarios: the one entry point for the scenario registry. Runs
// each selected entry per (ds, smr, threads) cell: the robustness matrix
// (skewed, phased, churning and stalling workloads, with the peak vs
// recovered unreclaimed memory around an injected stall) and the paper's
// figure panels and ablations.
//
//   bench_scenarios --list
//   bench_scenarios --scenario stall-recovery --ds HML
//       --smr EBR,EpochPOP --threads 4
//   bench_scenarios --scenario all --short        # CI smoke matrix
//   bench_scenarios --scenario 'fig2-*'           # Figure 2, both panels
//   bench_scenarios --scenario fig4-long-reads-10k --smr NR,NBR,EpochPOP
//
// Each entry brings its own default ds, thread and scheme lists; the
// --ds/--threads/--smr flags (or their env knobs) replace them for every
// selected entry. --duration-ms sets each figure or ablation cell's
// length; the robustness entries keep their own schedules. With
// POPSMR_BENCH_JSON (or --json) set, every cell appends kind-tagged JSON
// Lines: one "scenario" summary, one "phase" row per phase, one
// "mem_sample" row per timeline point, plus "latency" and "shard" rows
// when recorded — enough to plot unreclaimed memory over time across the
// park/resume window.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
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

void print_header(const ScenarioEntry& e) {
  std::printf("\n# scenario %s: %s\n", e.name.c_str(), e.description.c_str());
  std::printf("%-5s %-13s %3s %-12s %8s %9s %9s %11s %11s %9s %8s %11s %6s\n",
              "ds", "smr", "thr", "phase", "Mops", "readMops", "maxRetire",
              "unreclaimed", "VmHWM(KiB)", "signals", "pings", "neutralized",
              "churn");
  std::fflush(stdout);
}

void print_cell(const ScenarioSpec& spec, const ScenarioResult& r) {
  for (const auto& p : r.phases) {
    std::printf("%-5s %-13s %3d %-12s %8.3f %9.3f %9llu %11llu %11llu %9llu "
                "%8llu %11llu %6llu\n",
                spec.ds.c_str(), spec.smr.c_str(), p.threads, p.name.c_str(),
                p.mops, p.read_mops,
                static_cast<unsigned long long>(p.smr_delta.max_retire_len),
                static_cast<unsigned long long>(p.unreclaimed_end),
                static_cast<unsigned long long>(r.vm_hwm_kib),
                static_cast<unsigned long long>(p.smr_delta.signals_sent),
                static_cast<unsigned long long>(p.smr_delta.pings_received),
                static_cast<unsigned long long>(p.smr_delta.neutralized),
                static_cast<unsigned long long>(r.churn_cycles));
  }
  if (spec.stall.enabled) {
    std::printf("      %-13s stall: baseline %llu -> peak %llu -> final %llu "
                "unreclaimed (parked %llu..%llu ms, %zu samples)\n",
                spec.smr.c_str(),
                static_cast<unsigned long long>(r.baseline_unreclaimed),
                static_cast<unsigned long long>(r.stall_peak_unreclaimed),
                static_cast<unsigned long long>(r.final_unreclaimed),
                static_cast<unsigned long long>(r.stall_parked_at_ms),
                static_cast<unsigned long long>(r.stall_resumed_at_ms),
                r.samples.size());
  }
  // Per-kind latency percentiles when --latency / POPSMR_OBS_LATENCY
  // recorded anything (reclamation kinds included).
  for (const auto& L : r.latency) {
    std::printf("      %-13s lat %-9s n=%-9llu p50=%.1fus p90=%.1fus "
                "p99=%.1fus p999=%.1fus max=%.1fus\n",
                spec.smr.c_str(), L.op.c_str(),
                static_cast<unsigned long long>(L.lat.count), L.lat.p50_us,
                L.lat.p90_us, L.lat.p99_us, L.lat.p999_us, L.lat.max_us);
  }
  std::fflush(stdout);
}

// Figure 4's comparison: each scheme's read Mops as a ratio to NR's in
// the same (entry, ds, threads) group. Printed only when NR ran there and
// read something.
void print_ratio_to_nr(
    const std::vector<std::pair<std::string, double>>& read_mops) {
  const auto nr = std::find_if(read_mops.begin(), read_mops.end(),
                               [](const auto& m) { return m.first == "NR"; });
  if (nr == read_mops.end() || nr->second <= 0) return;
  for (const auto& [smr, mops] : read_mops) {
    std::printf("      %-13s readMops %.4f ratio-to-NR %.3f\n", smr.c_str(),
                mops, mops / nr->second);
  }
  std::fflush(stdout);
}

void write_rows(obs::JsonlFile& out, const ScenarioSpec& spec,
                const ScenarioResult& r) {
  out.write(scenario_row, spec, r);
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    out.write(phase_row, spec, i, r.phases[i]);
  }
  for (const auto& m : r.samples) out.write(mem_sample_row, spec, m);
  for (const auto& l : r.latency) out.write(latency_row, spec, l);
  for (const auto& s : r.service.shards) out.write(shard_row, spec, s);
}

struct Sweep {
  const ScenarioEntry* entry;
  std::vector<std::string> ds;
  std::vector<int> threads;
  std::vector<std::string> smrs;
};

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = apply_bench_cli(argc, argv);

  if (cli.list) {
    for (const auto& e : scenario_registry()) {
      std::printf("%-26s %s\n", e.name.c_str(), e.description.c_str());
    }
    return 0;
  }

  const auto selected =
      select_scenarios(cli.scenario.empty() ? "all" : cli.scenario);
  if (selected.empty()) {
    std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                 cli.scenario.c_str());
    return 2;
  }
  // Every entry's axes are resolved (and their names checked) before the
  // first cell runs.
  std::vector<Sweep> sweeps;
  for (const ScenarioEntry* e : selected) {
    sweeps.push_back({e, bench_ds_list(e->ds), bench_thread_list(e->threads),
                      bench_smr_list(e->smrs)});
  }
  const uint64_t duration_ms = bench_duration_ms(0);
  obs::JsonlFile out(runtime::env_str("POPSMR_BENCH_JSON", ""));

  for (const Sweep& sw : sweeps) {
    print_header(*sw.entry);
    for (const auto& ds : sw.ds) {
      for (int t : sw.threads) {
        std::vector<std::pair<std::string, double>> read_mops;
        for (const auto& smr : sw.smrs) {
          ScenarioBuild b;
          b.ds = ds;
          b.smr = smr;
          b.threads = t;
          b.duration_ms = duration_ms;
          if (cli.short_mode) {
            // ~50 ms phases over a small universe: the CI smoke matrix.
            b.time_scale = 0.25;
            b.key_range = 512;
          }
          const auto spec = make_scenario(sw.entry->name, b);
          const auto r = run_scenario(*spec);
          print_cell(*spec, r);
          write_rows(out, *spec, r);
          read_mops.emplace_back(smr, r.read_mops);
        }
        print_ratio_to_nr(read_mops);
      }
    }
  }
  return 0;
}
