// bench_faults: crash-fault sweep — per (ds, smr, threads) cell it runs
// the three injected failure modes the recovery machinery exists to
// absorb, and reports what the reaper / watchdog / backstop did about
// each:
//
//   signal-loss   a victim parks holding its reservation while every ping
//                 to it is silently dropped; the POP watchdog must time
//                 the wave out (waves_timed_out) and the run must recover
//                 once delivery is restored
//   thread-kill   the zombie-storm scenario: workers die mid-operation
//                 leaking their registry slots; the reaper must certify
//                 the corpses (tids_reaped) and adopt their retires
//   pressure      the pressure-backstop scenario: a tight unreclaimed
//                 bound forces handshake passes and degrades to
//                 defer-and-warn while a reservation pins memory
//
//   bench_faults --smr EpochPOP --threads 4
//   bench_faults --short          # CI smoke matrix
//
// With POPSMR_BENCH_JSON (or --json) set, signal-loss and thread-kill
// cells append a kind:"fault" row and the pressure cell a
// kind:"pressure" row. POPSMR_PING_TIMEOUT_MS is seeded (not overridden)
// to a short deadline so the signal-loss cell's watchdog expires within
// the bench window instead of after the default full second.
#include <cstdio>
#include <cstdlib>
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

void print_fault_header(const char* fault, const char* what) {
  std::printf("\n# fault %s: %s\n", fault, what);
  std::printf("%-5s %-13s %3s %6s %10s %7s %8s %8s %10s %10s %9s\n", "ds",
              "smr", "thr", "Mops", "kills", "reaped", "adopted", "wavesTO",
              "suppressed", "recover_ms", "finalUnr");
  std::fflush(stdout);
}

void print_fault_cell(const ScenarioSpec& spec, const ScenarioResult& r) {
  std::printf("%-5s %-13s %3d %6.3f %10llu %7llu %8llu %8llu %10llu %10llu "
              "%9llu\n",
              spec.ds.c_str(), spec.smr.c_str(), spec.threads, r.mops,
              static_cast<unsigned long long>(r.kills),
              static_cast<unsigned long long>(r.smr.tids_reaped),
              static_cast<unsigned long long>(r.smr.orphans_adopted),
              static_cast<unsigned long long>(r.smr.waves_timed_out),
              static_cast<unsigned long long>(r.signals_suppressed),
              static_cast<unsigned long long>(r.recovered_at_ms),
              static_cast<unsigned long long>(r.final_unreclaimed));
  std::fflush(stdout);
}

void print_pressure_cell(const ScenarioSpec& spec, const ScenarioResult& r) {
  std::printf("%-5s %-13s %3d %6.3f bound %llu events %llu forced %llu "
              "peak %llu final %llu\n",
              spec.ds.c_str(), spec.smr.c_str(), spec.threads, r.mops,
              static_cast<unsigned long long>(spec.smr_cfg.pressure_bound),
              static_cast<unsigned long long>(r.smr.pressure_events),
              static_cast<unsigned long long>(r.smr.forced_handshakes),
              static_cast<unsigned long long>(r.stall_peak_unreclaimed),
              static_cast<unsigned long long>(r.final_unreclaimed));
  std::fflush(stdout);
}

ScenarioBuild cell_build(const std::string& ds, const std::string& smr, int t,
                         bool short_mode) {
  ScenarioBuild b;
  b.ds = ds;
  b.smr = smr;
  b.threads = t;
  if (short_mode) {
    b.time_scale = 0.25;
    b.key_range = 512;
  }
  return b;
}

// The signal-loss cell: stall-recovery's shape (a parked victim pinning
// its reservation under Zipfian churn) with the loss injector dropping
// every ping aimed at the victim while it sleeps. A POP reclaimer's wave
// genuinely cannot complete — the watchdog must expire, classify the
// victim live-but-mute, and defer; delivery is restored when the victim
// resumes so the tail of the run measures recovery.
ScenarioSpec signal_loss_spec(const ScenarioBuild& b) {
  auto spec = make_scenario("stall-recovery", b);
  spec->faults.signal_loss = true;
  spec->faults.signal_loss_pct = 100;
  spec->faults.signal_loss_stop_after_ms =
      spec->stall.park_after_ms + spec->stall.park_for_ms;
  // A low threshold keeps retire backlogs crossing the POP trigger during
  // the park window even in slow sanitizer builds — without waves there
  // is nothing for the loss injector to eat or the watchdog to time out.
  spec->smr_cfg.retire_threshold = 64;
  return *spec;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = apply_bench_cli(argc, argv);
  if (cli.list) {
    std::printf("signal-loss   watchdog: parked victim + dropped pings\n");
    std::printf("thread-kill   reaper: zombie-storm (leaked registry slots)\n");
    std::printf("pressure      backstop: pressure-backstop (tight bound)\n");
    return 0;
  }

  // Short watchdog deadline so a lost wave expires inside the bench
  // window — it must undercut the --short stall window (~60 ms) or the
  // victim resumes before the watchdog fires and the cell measures
  // nothing. An exported value (or a CI recipe) still wins. Healthy waves
  // are unaffected: the deadline arms lazily at the first escalation and
  // a responsive peer publishes in microseconds.
  setenv("POPSMR_PING_TIMEOUT_MS", "20", /*overwrite=*/0);

  const auto ds_list = bench_ds_list("HML");
  const auto smrs = bench_smr_list();
  const auto threads = bench_thread_list("4");
  obs::JsonlFile out(runtime::env_str("POPSMR_BENCH_JSON", ""));

  print_fault_header("signal-loss",
                     "pings to a parked victim dropped until it resumes");
  for (const auto& ds : ds_list) {
    for (int t : threads) {
      for (const auto& smr : smrs) {
        ScenarioSpec spec = signal_loss_spec(cell_build(ds, smr, t,
                                                        cli.short_mode));
        const auto r = run_scenario(spec);
        print_fault_cell(spec, r);
        out.write(fault_row, spec, "signal-loss", r);
        for (const auto& l : r.latency) out.write(latency_row, spec, l);
      }
    }
  }

  print_fault_header("thread-kill",
                     "workers killed mid-operation, registry slots leaked");
  for (const auto& ds : ds_list) {
    for (int t : threads) {
      for (const auto& smr : smrs) {
        auto spec = make_scenario("zombie-storm",
                                  cell_build(ds, smr, t, cli.short_mode));
        const auto r = run_scenario(*spec);
        print_fault_cell(*spec, r);
        out.write(fault_row, *spec, "thread-kill", r);
        for (const auto& l : r.latency) out.write(latency_row, *spec, l);
      }
    }
  }

  std::printf("\n# fault pressure: tight unreclaimed bound under a parked "
              "victim\n");
  for (const auto& ds : ds_list) {
    for (int t : threads) {
      for (const auto& smr : smrs) {
        auto spec = make_scenario("pressure-backstop",
                                  cell_build(ds, smr, t, cli.short_mode));
        const auto r = run_scenario(*spec);
        print_pressure_cell(*spec, r);
        out.write(pressure_row, *spec, r);
      }
    }
  }
  return 0;
}
