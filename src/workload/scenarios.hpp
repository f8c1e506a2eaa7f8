// Named scenario registry: one table of entries, each mapping a cell
// (ds, smr, threads, shards, time scale) onto a full ScenarioSpec. It
// holds the robustness scenarios bench_scenarios sweeps by default (the
// README's "scenario cookbook"), the paper's figure panels and ablation
// values (fig1-dgt, fig4-long-reads-10k, ablation-threshold-512, ...),
// and the put-ratio, resize-deficit and signal-loss sweeps (kv-put-50,
// grow-storm-64, signal-loss), which bench_scenarios selects by name or
// glob.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "workload/scenario.hpp"

namespace pop::workload {

// Knobs a caller varies per matrix cell; everything else (phases, key
// distributions, churn/stall schedules) is the scenario's identity.
struct ScenarioBuild {
  std::string ds = "HML";
  std::string smr = "EpochPOP";
  int threads = 4;
  // Multiplies every phase duration (and derived intervals). CI's
  // scenario-smoke job (bench_scenarios --short) runs at 0.25 with a
  // shrunken key range.
  double time_scale = 1.0;
  // Figure, ablation, kv-put and grow-storm entries only: 0 = the
  // entry's own length, otherwise each phase's length (overriding
  // time_scale).
  uint64_t duration_ms = 0;
  // 0 = the scenario's own default range; smoke mode passes a small one.
  uint64_t key_range = 0;
  // Service-layer shard count; 0 = the entry's own (ScenarioEntry::shards).
  int shards = 0;
};

struct ScenarioEntry {
  std::string name;
  std::string description;  // one line, for --list and table headers
  // Sweep axes when the caller names none (POPSMR_BENCH_DS / _THREADS /
  // _SMRS / _SHARDS and their flags): comma lists; an empty smrs means
  // every scheme.
  std::string ds = "HML";
  std::string threads = "4";
  std::string smrs;
  int shards = 1;
  // In the `--scenario all` matrix. The figure, ablation and sweep
  // entries are not; select them by name or glob (`fig2-*`).
  bool in_all = true;
  // Fills the scenario-specific part of `s`, whose cell fields (name, ds,
  // smr, threads, default key_range, shards) are already set; `sc` is the
  // time scale to apply to every duration.
  std::function<void(ScenarioSpec& s, const ScenarioBuild& b, double sc)>
      build;
};

// Registry order is presentation order.
const std::vector<ScenarioEntry>& scenario_registry();

// nullptr for unknown names.
const ScenarioEntry* find_scenario(const std::string& name);

// Entries selected by `pattern`, in registry order: "all" (the in_all
// matrix), or a name or shell glob (fnmatch). Empty when nothing matches.
std::vector<const ScenarioEntry*> select_scenarios(const std::string& pattern);

// Builds `name` for the given cell; nullopt for unknown names. The
// returned spec is already valid (normalize() would make no changes).
std::optional<ScenarioSpec> make_scenario(const std::string& name,
                                          const ScenarioBuild& build);

}  // namespace pop::workload
