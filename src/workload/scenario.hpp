// Scenario engine vocabulary: a ScenarioSpec composes a benchmark run
// from four orthogonal axes —
//
//   * key distribution   (uniform | Zipfian | [moving] hotspot, per phase)
//   * phase schedule     (timed phases changing op mix / thread count)
//   * thread lifecycle   (static pool, or churn: workers exit and fresh
//                         threads re-register mid-run, recycling registry
//                         tids under in-flight ping waves)
//   * fault injection    (a stall injector that parks a victim worker
//                         inside an SMR operation, pinning whatever its
//                         scheme publishes at op entry)
//
// plus a background memory-timeline sampler, so robustness shows up as a
// plotted trajectory (unreclaimed nodes / RSS over time) instead of one
// end-of-run number. `run_scenario` executes a spec; `normalize`
// validates and clamps it first. The paper's figure cells are one-phase
// specs from the scenario registry (workload/scenarios.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/hw_counters.hpp"
#include "obs/latency_histo.hpp"
#include "service/service_stats.hpp"
#include "smr/smr_config.hpp"
#include "workload/op_mix.hpp"

namespace pop::workload {

enum class KeyDist { kUniform, kZipfian, kHotspot };

struct KeyDistSpec {
  KeyDist kind = KeyDist::kUniform;
  // Zipfian skew (theta = 0 is uniform; YCSB's default is 0.99).
  double zipf_theta = 0.99;
  // Hotspot: `hot_fraction` of the key range receives `hot_op_pct`% of
  // the operations; a nonzero move interval slides the window while the
  // phase runs (workers pick it up via a shared window counter).
  double hot_fraction = 0.10;
  uint32_t hot_op_pct = 90;
  uint64_t hot_move_every_ms = 0;

  bool operator==(const KeyDistSpec&) const = default;
};

// The op mix (pct_insert / pct_erase / pct_put, remainder get) is the
// shared OpMix base.
struct PhaseSpec : OpMix {
  std::string name = "main";
  uint64_t duration_ms = 100;
  // Read-your-writes validation mode: workers confine themselves to
  // worker-private key stripes (key % active_threads == slot) and check
  // after every put/remove that an immediate get returns exactly the
  // value just written (or a miss after remove); a mismatch counts into
  // OpCounts::rw_violations. Turns the phase into a per-key
  // linearizability checker for the put-replace retire path.
  bool read_your_writes = false;
  // Active worker count this phase; 0 inherits ScenarioSpec::threads.
  // Slots beyond the active count idle (they stay registered but run no
  // operations), so a burst phase can oversubscribe and a drain phase can
  // quiesce without tearing the pool down.
  int threads = 0;
  KeyDistSpec keys;
  // Figure-4 mode: the first half of the active workers only run
  // contains() over the full range; the rest update [0, writer_key_range)
  // 50/50. pct_insert/pct_erase and `keys` are ignored when set (the
  // roles fix both the mix and the distribution; normalize() warns).
  bool split_readers_writers = false;
  uint64_t writer_key_range = 64;

  bool operator==(const PhaseSpec&) const = default;
};

struct ChurnSpec {
  bool enabled = false;
  // Every interval one worker exits (deregistering its tid) and a fresh
  // thread is spawned into its slot, re-registering — the recycled-tid
  // path reclaimers' ping waves must survive.
  uint64_t interval_ms = 25;

  bool operator==(const ChurnSpec&) const = default;
};

struct StallSpec {
  bool enabled = false;
  int victim = 0;              // worker slot to park
  uint64_t park_after_ms = 0;  // measured from the start of phase 0
  uint64_t park_for_ms = 50;

  bool operator==(const StallSpec&) const = default;
};

// Crash-fault injectors (the failure modes the zombie reaper, handshake
// watchdog, and pressure backstop exist to absorb). Orthogonal to the
// stall injector: a run can combine a parked victim with lost signals —
// the cell where a POP reclaimer's ping wave genuinely cannot complete.
struct FaultSpec {
  // Signal loss: pings are silently dropped (pthread_kill skipped; the
  // sender still counts the target as signalled — it cannot tell). The
  // victim defaults to the stall victim's registry tid when the stall
  // injector is on, else any target.
  bool signal_loss = false;
  int signal_loss_pct = 100;           // drop probability per ping
  uint64_t signal_loss_stop_after_ms = 0;  // restore delivery at T; 0 = never
  // Thread kill: starting at kill_after_ms, a worker opens an SMR
  // operation bracket and exits WITHOUT closing it or detaching, then
  // (kill_every_ms > 0) another every interval, up to `kills` victims.
  bool thread_kill = false;
  uint64_t kill_after_ms = 10;  // from phase-0 start
  uint64_t kill_every_ms = 0;   // 0 = single kill
  int kills = 1;                // total victims
  // Leak the registry slot too (skip the TLS deregister): the corpse
  // stays *registered* and only the reaper's tgkill certification can
  // reclaim the tid — the hard zombie, vs. the default departed-worker.
  bool kill_zombie = false;
  bool respawn = true;  // spawn a fresh worker into the killed slot

  bool operator==(const FaultSpec&) const = default;
};

// Observability toggles, OR-ed with the process-wide env/CLI channels
// (POPSMR_OBS_LATENCY / POPSMR_OBS_HW): a spec can force latency
// recording or per-phase hardware counters for one run without touching
// the environment. Tracing is armed process-wide (POPSMR_TRACE /
// obs::arm_trace) and needs no spec field — the engine only marks run
// boundaries in the trace when a ring is armed.
struct ObsSpec {
  bool latency = false;
  bool hw = false;

  bool operator==(const ObsSpec&) const = default;
};

struct ScenarioSpec {
  std::string name = "custom";
  std::string ds = "HML";
  std::string smr = "NR";
  int threads = 2;
  // Service-layer shard axis: > 1 runs the workload against a ShardedMap
  // of that many independent (ds, smr) shards — one SMR domain per shard
  // — instead of one monolithic set. 1 = plain set, zero routing cost.
  int shards = 1;
  // Shard-selection hash: "splitmix" (scatter, the default) or "modulo"
  // (key % shards: contiguous-range locality).
  std::string shard_hash = "splitmix";
  uint64_t key_range = 2048;
  // Keys prefilled before phase 0 (default: key_range / 2).
  uint64_t prefill = UINT64_MAX;
  double load_factor = 6.0;  // hash table only
  // Resize axis: the capacity the structure is *provisioned* for, when
  // different from key_range (0 = provision for key_range, the legacy
  // behaviour). Under-provisioning a resizable table (initial_capacity
  // << key_range) forces a grow storm; a fixed HMHT just runs with long
  // buckets. The deficit key_range / initial_capacity is what the
  // grow-storm-D registry entries vary.
  uint64_t initial_capacity = 0;
  smr::SmrConfig smr_cfg;
  std::vector<PhaseSpec> phases;  // empty => one default phase
  ChurnSpec churn;
  StallSpec stall;
  FaultSpec faults;
  // Background sampler cadence; 0 disables the timeline.
  uint64_t mem_sample_every_ms = 0;
  ObsSpec obs;

  bool operator==(const ScenarioSpec&) const = default;
};

// Validates and clamps `spec` in place: fills defaulted fields (empty
// phase list, inherited per-phase thread counts), clamps out-of-range
// values (prefill > key_range, pct_insert + pct_erase > 100, thread
// counts beyond the registry, degenerate distribution parameters) and
// returns one human-readable message per adjustment. run_scenario calls
// this itself and prints the messages to stderr; callers that want to
// *reject* bad specs instead can call it first and treat a non-empty
// result as an error.
std::vector<std::string> normalize(ScenarioSpec& spec);

// One point on the memory timeline, taken by the background sampler.
// Counter reads are racy-but-benign (SWMR u64 cells, torn values are off
// by at most one op) — the timeline is for plotting, not accounting.
struct MemSample {
  uint64_t t_ms = 0;  // since phase 0 started
  int phase = 0;
  uint64_t vm_rss_kib = 0;
  uint64_t vm_hwm_kib = 0;
  uint64_t retired = 0;
  uint64_t freed = 0;  // unreclaimed = retired - freed
  uint64_t pool_allocated = 0;
  uint64_t pool_freed = 0;
  bool victim_parked = false;
  // Saturating: a torn mid-run snapshot can catch a batched sweep between
  // its retired and freed reads and see freed > retired momentarily.
  uint64_t unreclaimed() const { return freed > retired ? 0 : retired - freed; }
};

// Per-op counters (ops/reads/updates plus the KV breakdown) come from
// the shared OpCounts base.
struct PhaseResult : OpCounts {
  std::string name;
  int threads = 0;
  double seconds = 0;
  double mops = 0;
  double read_mops = 0;
  // Scheme counters accrued during this phase (end minus start snapshot;
  // max_retire_len is the end-of-phase high-watermark, not a delta).
  smr::StatsSnapshot smr_delta;
  uint64_t unreclaimed_end = 0;
  // Point-op latency over this phase (all op kinds merged; count == 0
  // when the latency channel was off) and the phase's hardware-counter
  // deltas summed across workers (hw.valid == false when the kernel
  // refused perf_event_open — the CI-container case).
  obs::LatencySummary latency;
  obs::HwSample hw;
};

// Whole-run aggregates; the OpCounts base replaces the old
// ops_total/reads_total/updates_total trio (ops == the old ops_total).
struct ScenarioResult : OpCounts {
  std::vector<PhaseResult> phases;
  std::vector<MemSample> samples;
  double mops = 0;
  double read_mops = 0;
  double seconds = 0;
  smr::StatsSnapshot smr;
  uint64_t vm_hwm_kib = 0;
  uint64_t final_size = 0;
  // Thread-lifecycle accounting.
  uint64_t churn_cycles = 0;
  // Stall accounting (meaningful when the spec enabled the injector):
  // unreclaimed just before the victim parked, the maximum observed while
  // it slept, and the value after the run drained.
  uint64_t baseline_unreclaimed = 0;
  uint64_t stall_peak_unreclaimed = 0;
  uint64_t final_unreclaimed = 0;
  uint64_t stall_parked_at_ms = 0;
  uint64_t stall_resumed_at_ms = 0;
  // Crash-fault accounting (meaningful when spec.faults enabled one):
  // workers killed mid-operation, pings suppressed by the loss injector,
  // and the first post-kill timestamp at which unreclaimed dropped back
  // to (or below) its pre-kill baseline (0 = never observed recovering —
  // only meaningful when the mem sampler ran).
  uint64_t kills = 0;
  uint64_t signals_suppressed = 0;
  uint64_t first_kill_at_ms = 0;
  uint64_t recovered_at_ms = 0;
  // Resize accounting (RHHT cells; zero-filled for fixed structures
  // except buckets_final, which reports a fixed table's static shape).
  uint64_t grows = 0;
  uint64_t shrinks = 0;
  uint64_t buckets_final = 0;
  uint64_t resizes() const { return grows + shrinks; }
  // Per-shard breakdown when the spec ran sharded (shards > 1); empty
  // otherwise. service.smr matches the `smr` roll-up above.
  service::ServiceStats service;
  std::vector<std::string> warnings;  // what normalize() adjusted
  // Observability roll-up (tentpole PR 8). `latency` has one entry per
  // op/reclamation kind that recorded at least one sample ("get", "put",
  // "insert", "remove", "ping_wave", "sweep", "reap"); `latency_all`
  // merges the point ops. Empty / zero when the latency channel was off
  // (obs_latency_on says which). `hw` is the whole-run counter roll-up.
  struct OpLatency {
    std::string op;
    obs::LatencySummary lat;
  };
  std::vector<OpLatency> latency;
  obs::LatencySummary latency_all;
  obs::HwSample hw;
  bool obs_latency_on = false;
  bool obs_hw_on = false;
  // Contract-sanitizer roll-up: violations reported by smr::audit during
  // this run (delta, not process-lifetime total). Always 0 in a green
  // run; audit_on records whether the sanitizer was armed at all, so a 0
  // can be read as "checked and clean" vs "not checked".
  uint64_t audit_violations = 0;
  bool audit_on = false;
};

// The engine itself — ScenarioResult run_scenario(const ScenarioSpec&) —
// lives in scenario_engine.hpp.

}  // namespace pop::workload
