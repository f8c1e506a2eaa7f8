// bench_scenarios: the one entry point for the scenario registry. Runs
// each selected entry per (ds, threads, smr, shards) cell: the robustness
// matrix (skewed, phased, churning, stalling, crashing and sharded
// workloads, with the peak vs recovered unreclaimed memory around an
// injected stall), the paper's figure panels and ablations, and the
// put-ratio, resize-deficit and signal-loss sweeps.
//
//   bench_scenarios --list
//   bench_scenarios --scenario stall-recovery --ds HML
//       --smr EBR,EpochPOP --threads 4
//   bench_scenarios --scenario all --short        # CI smoke matrix
//   bench_scenarios --scenario 'fig2-*'           # Figure 2, both panels
//   bench_scenarios --scenario fig4-long-reads-10k --smr NR,NBR,EpochPOP
//   bench_scenarios --scenario 'kv-put-*' --ds HMHT --smr EBR,EpochPOP
//   bench_scenarios --scenario 'grow-storm-*'     # RHHT vs fixed HMHT
//   bench_scenarios --scenario 'sharded-*' --shards 1,2,4,8
//       --shard-hash modulo
//   bench_scenarios --scenario signal-loss --smr EpochPOP
//
// Each entry brings its own default ds, thread, scheme and shard lists;
// the --ds/--threads/--smr/--shards flags (or their env knobs) replace
// them for every selected entry, and --shard-hash sets every cell's shard
// hash. --duration-ms sets each figure, ablation, kv-put or grow-storm
// phase's length; the robustness entries keep their own schedules. After
// an entry's cells, ratio lines give each scheme's read Mops against NR's
// (Figure 4) and RHHT's last-phase Mops against the fixed HMHT's
// (grow-storm's recovery). A cell whose spec (entry name aside) an
// earlier entry already ran in this invocation — the fixed HMHT of every
// grow-storm-D, fig10-hml-update's cells and fig2-hml's — is not run
// again: a line says so, and the earlier result is printed, written and
// ratioed under this entry's name. With POPSMR_BENCH_JSON (or --json)
// set, every cell appends kind-tagged JSON Lines: one "scenario" summary,
// one "phase" row per phase, one "mem_sample" row per timeline point,
// plus "latency" and "shard" rows when recorded — enough to plot
// unreclaimed memory over time across the park/resume window.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
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
  std::printf("%-5s %-13s %3s %6s %-12s %8s %9s %9s %11s %11s %9s %8s "
              "%11s %6s\n",
              "ds", "smr", "thr", "shards", "phase", "Mops", "readMops",
              "maxRetire", "unreclaimed", "VmHWM(KiB)", "signals", "pings",
              "neutralized", "churn");
  std::fflush(stdout);
}

void print_cell(const ScenarioSpec& spec, const ScenarioResult& r) {
  for (const auto& p : r.phases) {
    std::printf("%-5s %-13s %3d %6d %-12s %8.3f %9.3f %9llu %11llu %11llu "
                "%9llu %8llu %11llu %6llu\n",
                spec.ds.c_str(), spec.smr.c_str(), p.threads, spec.shards,
                p.name.c_str(), p.mops, p.read_mops,
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

// One finished cell, kept for the ratio lines printed after its entry.
struct Cell {
  std::string ds;
  std::string smr;
  int threads = 0;
  int shards = 0;
  double read_mops = 0;
  double last_phase_mops = 0;
};

// A ratio line per cell whose `axis` (ds or smr) holds `subject` (empty:
// any value): its `value` against the base cell, the one that differs
// from it only by holding `base` on `axis`. Printed only when the base
// ran and measured something.
void print_ratios(const std::vector<Cell>& cells, std::string Cell::*axis,
                  const std::string& base, const std::string& subject,
                  double Cell::*value, const char* what) {
  for (const Cell& c : cells) {
    if (!subject.empty() && c.*axis != subject) continue;
    Cell key = c;
    key.*axis = base;
    const auto ref =
        std::find_if(cells.begin(), cells.end(), [&key](const Cell& o) {
          return o.ds == key.ds && o.smr == key.smr &&
                 o.threads == key.threads && o.shards == key.shards;
        });
    if (ref == cells.end() || (*ref).*value <= 0) continue;
    std::printf("      %-5s %-13s %3d %6d %s %.4f ratio-to-%s %.3f\n",
                c.ds.c_str(), c.smr.c_str(), c.threads, c.shards, what,
                c.*value, base.c_str(), c.*value / (*ref).*value);
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
  std::vector<int> shards;
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
                      bench_smr_list(e->smrs),
                      bench_shard_list(std::to_string(e->shards))});
  }
  // A lost wave must expire inside the cell: the 20-ms watchdog deadline
  // undercuts the --short stall window (~60 ms), or the victim resumes
  // before the watchdog fires and the cell measures nothing. An exported
  // value still wins. Healthy waves are unaffected: the deadline arms at
  // the first escalation and a responsive peer publishes in microseconds.
  if (std::any_of(selected.begin(), selected.end(), [](const auto* e) {
        return make_scenario(e->name, {})->faults.signal_loss;
      })) {
    setenv("POPSMR_PING_TIMEOUT_MS", "20", /*overwrite=*/0);
  }
  const uint64_t duration_ms = bench_duration_ms(0);
  const std::string shard_hash =
      runtime::env_str("POPSMR_SHARD_HASH", "splitmix");
  obs::JsonlFile out(runtime::env_str("POPSMR_BENCH_JSON", ""));

  // Every cell run so far, keyed by its spec with the entry name cleared.
  struct Ran {
    ScenarioSpec key;
    std::string entry;
    ScenarioResult result;
  };
  std::vector<Ran> ran;

  for (const Sweep& sw : sweeps) {
    print_header(*sw.entry);
    std::vector<Cell> cells;
    for (const auto& ds : sw.ds) {
      for (int t : sw.threads) {
        for (const auto& smr : sw.smrs) {
          for (int shards : sw.shards) {
            ScenarioBuild b;
            b.ds = ds;
            b.smr = smr;
            b.threads = t;
            b.shards = shards;
            b.duration_ms = duration_ms;
            if (cli.short_mode) {
              // ~50 ms phases over a small universe: the CI smoke matrix.
              b.time_scale = 0.25;
              b.key_range = 512;
            }
            auto spec = make_scenario(sw.entry->name, b);
            spec->shard_hash = shard_hash;
            // Rows and tables report the spec that runs: an override the
            // engine would clamp (--shards beyond the key range, a typo'd
            // --shard-hash) is clamped here, with a warning.
            for (const auto& w : normalize(*spec)) {
              std::fprintf(stderr, "bench_scenarios %s: %s\n",
                           sw.entry->name.c_str(), w.c_str());
            }
            ScenarioSpec key = *spec;
            key.name.clear();
            auto same = std::find_if(ran.begin(), ran.end(), [&](const Ran& o) {
              return o.key == key;
            });
            if (same == ran.end()) {
              ran.push_back({std::move(key), spec->name, run_scenario(*spec)});
              same = std::prev(ran.end());
            } else {
              std::printf("%-5s %-13s %3d %6d (same cell as %s: not rerun)\n",
                          ds.c_str(), smr.c_str(), spec->threads,
                          spec->shards, same->entry.c_str());
            }
            const ScenarioResult& r = same->result;
            print_cell(*spec, r);
            write_rows(out, *spec, r);
            cells.push_back({ds, smr, spec->threads, spec->shards, r.read_mops,
                             r.phases.empty() ? 0 : r.phases.back().mops});
          }
        }
      }
    }
    print_ratios(cells, &Cell::smr, "NR", "", &Cell::read_mops, "readMops");
    print_ratios(cells, &Cell::ds, "HMHT", "RHHT", &Cell::last_phase_mops,
                 "lastPhaseMops");
  }
  return 0;
}
