#include "workload/scenarios.hpp"

#include <fnmatch.h>

#include <algorithm>
#include <cmath>

namespace pop::workload {

namespace {

uint64_t scaled_ms(uint64_t ms, double scale) {
  const double v = std::ceil(static_cast<double>(ms) * scale);
  return v < 1.0 ? 1 : static_cast<uint64_t>(v);
}

// List traversals are O(size): give them a smaller default universe than
// the log/const-depth structures so cells finish in comparable time.
uint64_t default_range(const std::string& ds) {
  return (ds == "HML" || ds == "LL") ? 2048 : 16384;
}

PhaseSpec phase(const char* name, uint64_t dur_ms, uint32_t ins, uint32_t ers,
                double scale) {
  PhaseSpec p;
  p.name = name;
  p.duration_ms = scaled_ms(dur_ms, scale);
  p.pct_insert = ins;
  p.pct_erase = ers;
  return p;
}

// A figure panel or ablation value: one uniform "main" phase over a fixed
// key range (0: the cell's default range) with the panel's SMR knobs.
// Paper setup: DGT 200K, HMHT 6M, ABT 20M keys, 1..288 threads, 5 s
// runs, retire threshold 24K, on a 144-thread machine. The defaults here
// are scaled to a few cores (sizes /~25, threads {1,2,4}, 150-300 ms
// cells, threshold 512): compare shapes — who wins, who pays fences,
// whose retire lists stay small.
struct Figure {
  uint64_t key_range;
  PhaseSpec mix;
  uint64_t duration_ms;
  smr::SmrConfig smr_cfg;
};

PhaseSpec mix(uint32_t ins, uint32_t ers) {
  return phase("main", 0, ins, ers, 1.0);
}

smr::SmrConfig threshold(uint64_t retire_threshold) {
  smr::SmrConfig c;
  c.retire_threshold = retire_threshold;
  return c;
}

std::vector<ScenarioEntry> build_registry() {
  std::vector<ScenarioEntry> r;
  auto add = [&r](std::string name, std::string description,
                  decltype(ScenarioEntry::build) build) -> ScenarioEntry& {
    ScenarioEntry& e = r.emplace_back();
    e.name = std::move(name);
    e.description = std::move(description);
    e.build = std::move(build);
    return e;
  };

  add("uniform-mixed",
      "control cell: one phase, uniform keys, 25i/25d/50c, static pool",
      [](ScenarioSpec& s, const ScenarioBuild&, double sc) {
        s.phases.push_back(phase("mixed", 200, 25, 25, sc));
      });

  add("hotspot-churn",
      "90% of ops on a 10% hot set while workers exit and fresh "
      "threads re-register (registry tid recycling under ping waves)",
      [](ScenarioSpec& s, const ScenarioBuild&, double sc) {
        PhaseSpec p = phase("hot-churn", 300, 40, 40, sc);
        p.keys.kind = KeyDist::kHotspot;
        p.keys.hot_fraction = 0.10;
        p.keys.hot_op_pct = 90;
        s.phases.push_back(p);
        s.churn.enabled = true;
        s.churn.interval_ms = scaled_ms(30, sc);
        s.mem_sample_every_ms = scaled_ms(10, sc);
      });

  add("moving-hotspot",
      "write-burst then read-mostly phases with the hot window "
      "sliding across the key space mid-phase",
      [](ScenarioSpec& s, const ScenarioBuild&, double sc) {
        PhaseSpec burst = phase("write-burst", 200, 45, 45, sc);
        burst.keys.kind = KeyDist::kHotspot;
        burst.keys.hot_fraction = 0.05;
        burst.keys.hot_op_pct = 90;
        burst.keys.hot_move_every_ms = scaled_ms(25, sc);
        PhaseSpec read = phase("read-mostly", 200, 5, 5, sc);
        read.keys = burst.keys;
        s.phases.push_back(burst);
        s.phases.push_back(read);
        s.mem_sample_every_ms = scaled_ms(10, sc);
      });

  const auto stall_recovery = [](ScenarioSpec& s, const ScenarioBuild&,
                                 double sc) {
    // Equal mixed phases; the victim parks for all of phase "stalled".
    // Zipfian keys keep old (pre-stall-born) nodes churning, which is
    // what an era-publishing stalled thread pins.
    const uint64_t warm = 150, stall = 250, recover = 250;
    for (auto [nm, dur] : {std::pair{"warmup", warm},
                           std::pair{"stalled", stall},
                           std::pair{"recovery", recover}}) {
      PhaseSpec p = phase(nm, dur, 30, 30, sc);
      p.keys.kind = KeyDist::kZipfian;
      p.keys.zipf_theta = 0.8;
      s.phases.push_back(p);
    }
    s.stall.enabled = true;
    s.stall.victim = 0;
    s.stall.park_after_ms = scaled_ms(warm, sc);
    s.stall.park_for_ms = scaled_ms(stall, sc);
    s.mem_sample_every_ms = std::max<uint64_t>(1, scaled_ms(8, sc));
  };
  add("stall-recovery",
      "a victim worker parks mid-operation holding its reservation; "
      "the timeline shows unreclaimed memory grow and recover",
      stall_recovery);

  add("oversubscribed-burst",
      "4x thread burst (past the core count) -> read-mostly -> "
      "erase-heavy drain, exercising preempted-thread handshakes",
      [](ScenarioSpec& s, const ScenarioBuild&, double sc) {
        PhaseSpec burst = phase("write-burst", 200, 50, 50, sc);
        burst.threads = s.threads * 4;
        PhaseSpec read = phase("read-mostly", 150, 5, 5, sc);
        PhaseSpec drain = phase("drain", 150, 0, 60, sc);
        s.phases.push_back(burst);
        s.phases.push_back(read);
        s.phases.push_back(drain);
        s.mem_sample_every_ms = scaled_ms(10, sc);
      });

  add("sharded-uniform",
      "key space partitioned over N shards (one SMR domain each), "
      "uniform keys: the domain-contention split scale axis",
      [](ScenarioSpec& s, const ScenarioBuild&, double sc) {
        s.phases.push_back(phase("mixed", 200, 30, 30, sc));
      })
      .shards = 4;

  add("sharded-hotspot",
      "sharded map under Zipfian keys: the head keys concentrate on "
      "one hot shard while the rest idle (skewed service traffic)",
      [](ScenarioSpec& s, const ScenarioBuild&, double sc) {
        PhaseSpec p = phase("zipf", 250, 30, 30, sc);
        // theta 0.99 (YCSB default): the top handful of keys carry most of
        // the mass, so whichever shards they hash to run hot while the rest
        // see background traffic — per-shard ops in the ServiceStats show it.
        p.keys.kind = KeyDist::kZipfian;
        p.keys.zipf_theta = 0.99;
        s.phases.push_back(p);
        s.mem_sample_every_ms = scaled_ms(10, sc);
      })
      .shards = 4;

  add("kv-update-heavy",
      "value-carrying map traffic: a put-heavy phase (replaces retire "
      "displaced nodes under active readers) then a get-heavy phase "
      "over the rewritten keys",
      [](ScenarioSpec& s, const ScenarioBuild&, double sc) {
        // Put-replace is the reclamation traffic class set workloads never
        // exercise: most nodes die young (displaced while readers still hold
        // them). Phase 1 rewrites values hard; phase 2 reads them back with a
        // trickle of puts so reclamation keeps running against a get-heavy
        // mix.
        PhaseSpec rewrite = phase("put-heavy", 250, 5, 5, sc);
        rewrite.pct_put = 60;
        PhaseSpec readback = phase("get-heavy", 200, 0, 0, sc);
        readback.pct_put = 10;
        s.phases.push_back(rewrite);
        s.phases.push_back(readback);
        s.mem_sample_every_ms = scaled_ms(10, sc);
      });

  add("grow-churn",
      "a table provisioned for 1/64th of the key range fills under "
      "insert-heavy traffic while workers churn: grow-path descriptor "
      "CASes race recycled registry tids (RHHT resizes; fixed tables "
      "just run long buckets)",
      [](ScenarioSpec& s, const ScenarioBuild&, double sc) {
        // Under-provision by 64x: the resizable table must double its way up
        // ~6 times mid-run while the worker pool churns underneath it (a
        // descriptor CAS or cooperative bucket split can race a tid being
        // recycled). Prefill is skipped so the whole growth happens under
        // contention, not in the single-threaded fill loop.
        s.initial_capacity = std::max<uint64_t>(2, s.key_range / 64);
        s.prefill = 0;
        s.phases.push_back(phase("grow", 250, 70, 5, sc));
        s.phases.push_back(phase("churn-steady", 200, 25, 25, sc));
        s.churn.enabled = true;
        s.churn.interval_ms = scaled_ms(30, sc);
        s.mem_sample_every_ms = scaled_ms(10, sc);
      });

  add("resize-storm",
      "fill -> drain -> refill oscillation on an under-provisioned "
      "table with a victim parked through the drain: bucket-array "
      "retirement (one large Reclaimable per displaced descriptor) "
      "flows through the batched sweep against a pinned reservation",
      [](ScenarioSpec& s, const ScenarioBuild&, double sc) {
        // Oscillate the population so an adaptive table grows AND shrinks:
        // every displaced bucket array is retired as one large Reclaimable,
        // and the victim parked through the drain pins a reservation while
        // those arrays flow through the batched sweep.
        s.initial_capacity = std::max<uint64_t>(2, s.key_range / 64);
        s.prefill = 0;
        const uint64_t fill = 200, drain = 200, refill = 150;
        s.phases.push_back(phase("fill", fill, 80, 0, sc));
        s.phases.push_back(phase("drain", drain, 0, 80, sc));
        s.phases.push_back(phase("refill", refill, 60, 10, sc));
        s.stall.enabled = true;
        s.stall.victim = 0;
        s.stall.park_after_ms = scaled_ms(fill, sc);
        s.stall.park_for_ms = scaled_ms(drain / 2, sc);
        s.mem_sample_every_ms = std::max<uint64_t>(1, scaled_ms(8, sc));
      });

  add("zombie-storm",
      "workers are repeatedly killed inside operation brackets "
      "(registry slot leaked: only tgkill certification reclaims it) "
      "while replacements respawn; the reaper must certify corpses, "
      "neutralize their reservations and adopt orphaned retires",
      [](ScenarioSpec& s, const ScenarioBuild&, double sc) {
        // Update-heavy traffic keeps every corpse's abandoned bracket armed
        // against live garbage; kills land every interval with respawns, so
        // the run sustains a rolling population of uncertified zombies. The
        // mem timeline shows each kill's backlog and the reaper's adoption.
        PhaseSpec p = phase("storm", 400, 35, 35, sc);
        s.phases.push_back(p);
        s.faults.thread_kill = true;
        s.faults.kill_zombie = true;
        s.faults.respawn = true;
        s.faults.kill_after_ms = scaled_ms(60, sc);
        s.faults.kill_every_ms = scaled_ms(60, sc);
        s.faults.kills = 4;
        // Reclaim passes are the reaper's only vehicle: a low threshold keeps
        // them frequent enough that certification (two stale heartbeat scans,
        // then the tgkill probe) lands inside the run even under sanitizers.
        s.smr_cfg.retire_threshold = 64;
        s.mem_sample_every_ms = std::max<uint64_t>(1, scaled_ms(8, sc));
      });

  add("pressure-backstop",
      "a victim parks holding its reservation with a tight "
      "POPSMR_PRESSURE_BOUND set: unreclaimed crosses the bound, the "
      "backstop forces passes, degrades to defer-and-warn while "
      "pinned, and recovers once the victim resumes",
      [](ScenarioSpec& s, const ScenarioBuild&, double sc) {
        // Same shape as stall-recovery but with a pressure bound tight enough
        // that the parked victim pushes unreclaimed over it: the backstop
        // forces passes (visible as forced_handshakes / pressure_events) and
        // degrades to defer-and-warn until the victim resumes.
        const uint64_t warm = 120, stall = 220, recover = 200;
        for (auto [nm, dur] : {std::pair{"warmup", warm},
                               std::pair{"stalled", stall},
                               std::pair{"recovery", recover}}) {
          PhaseSpec p = phase(nm, dur, 30, 30, sc);
          s.phases.push_back(p);
        }
        s.stall.enabled = true;
        s.stall.victim = 0;
        s.stall.park_after_ms = scaled_ms(warm, sc);
        s.stall.park_for_ms = scaled_ms(stall, sc);
        // Bound well under a stalled run's organic backlog but above the
        // steady-state watermark (retire_threshold per worker).
        s.smr_cfg.pressure_bound =
            s.smr_cfg.retire_threshold * static_cast<uint64_t>(s.threads) * 2;
        s.mem_sample_every_ms = std::max<uint64_t>(1, scaled_ms(8, sc));
      });

  // Outside the `all` matrix: bench_scenarios seeds a 20-ms watchdog
  // deadline (POPSMR_PING_TIMEOUT_MS) only when it runs this entry.
  add("signal-loss",
      "stall-recovery with every ping to the parked victim dropped until "
      "it resumes: every signalling scheme's watchdog must time the wave "
      "out, defer, and recover once delivery is restored",
      [stall_recovery](ScenarioSpec& s, const ScenarioBuild& b, double sc) {
        // A POP or NBR reclaimer's wave genuinely cannot complete: the
        // watchdog must expire, classify the victim live-but-mute, and defer;
        // delivery is restored when the victim resumes so the tail of the
        // run measures recovery.
        stall_recovery(s, b, sc);
        s.faults.signal_loss = true;
        s.faults.signal_loss_pct = 100;
        s.faults.signal_loss_stop_after_ms =
            s.stall.park_after_ms + s.stall.park_for_ms;
        // A low threshold keeps retire backlogs crossing the POP trigger
        // during the park window even in slow sanitizer builds — without
        // waves there is nothing for the loss injector to eat or the
        // watchdog to time out.
        s.smr_cfg.retire_threshold = 64;
      })
      .in_all = false;

  // The paper's figures and ablations (§5), outside the `all` matrix.
  auto figure = [&add](std::string name, std::string description,
                       const char* ds, const char* threads, const char* smrs,
                       Figure f) {
    ScenarioEntry& e = add(
        std::move(name), std::move(description),
        [f](ScenarioSpec& s, const ScenarioBuild& b, double sc) {
          if (b.key_range == 0 && f.key_range != 0) s.key_range = f.key_range;
          s.smr_cfg = f.smr_cfg;
          s.phases.push_back(f.mix);
          s.phases.back().duration_ms =
              b.duration_ms ? b.duration_ms : scaled_ms(f.duration_ms, sc);
        });
    e.ds = ds;
    e.threads = threads;
    e.smrs = smrs;
    e.in_all = false;
  };
  const PhaseSpec update = mix(50, 50), read = mix(5, 5);
  const char* kUpdate = "update-heavy 50i/50d";
  const char* kRead = "read-heavy 5i/5d/90c";
  struct Panel {
    int fig;
    const char* tag;
    const char* ds;
    uint64_t key_range;
  };

  // Figure 1: update-heavy trees. Figure 2: update-heavy lists, where
  // per-read fences dominate. Figure 3: read-heavy trees, where eager
  // publishing hurts most (HP/HE fence every read, POP reads fence-free).
  for (const Panel& p :
       {Panel{1, "dgt", "DGT", 8192}, {1, "hmht", "HMHT", 16384},
        {1, "abt", "ABT", 65536}, {2, "hml", "HML", 2048},
        {2, "ll", "LL", 2048}, {3, "abt", "ABT", 65536},
        {3, "dgt", "DGT", 8192}}) {
    const std::string fig = std::to_string(p.fig);
    figure("fig" + fig + "-" + p.tag,
           "Figure " + fig + ": " + (p.fig == 3 ? kRead : kUpdate) + ", " +
               p.ds + " size " + std::to_string(p.key_range / 2),
           p.ds, "1,2,4", "",
           {p.key_range, p.fig == 3 ? read : update, 200, threshold(512)});
  }

  // Figure 4: long-running reads on HML. Half the threads run full-range
  // contains(), half update keys near the head; the tiny threshold keeps
  // reclamation (and NBR's neutralizing signals) constant. The paper's
  // result: NBR's read throughput collapses as reads get longer while the
  // POP family keeps reading. Paper: sizes 10K..800K, 96+96 threads,
  // threshold 2K; with 2 updaters the threshold shrinks to 64 so reclaim
  // rounds still hit each long read more than once.
  PhaseSpec long_reads = mix(25, 25);
  long_reads.split_readers_writers = true;
  long_reads.writer_key_range = 64;
  for (const uint64_t k : {10, 50, 100}) {
    figure("fig4-long-reads-" + std::to_string(k) + "k",
           "Figure 4: long-running reads, HML range " + std::to_string(k) +
               "K; half readers (full-range contains), half head-updaters",
           "HML", "4", "", {k * 1000, long_reads, 300, threshold(64)});
  }

  // Appendix Figures 5-9: every structure, both mixes, with the memory
  // metrics the appendix plots (VmHWM is a process-lifetime watermark:
  // compare rows within one sweep, or run single cells). Figures 10-11:
  // POP vs the Crystalline family, whose place BRC takes (README, under
  // the scheme table): no per-read work, batch frees after grace periods.
  for (const Panel& p :
       {Panel{5, "abt", "ABT", 65536}, {6, "dgt", "DGT", 8192},
        {7, "hmht", "HMHT", 16384}, {8, "hml", "HML", 2048},
        {9, "ll", "LL", 2048}, {10, "hml", "HML", 2048},
        {11, "hmht", "HMHT", 16384}}) {
    const std::string fig = std::to_string(p.fig);
    const bool crystalline = p.fig >= 10;
    for (const bool heavy_reads : {false, true}) {
      figure("fig" + fig + "-" + p.tag + (heavy_reads ? "-read" : "-update"),
             "Figure " + fig + ": " + p.ds + ", " +
                 (heavy_reads ? kRead : kUpdate) +
                 (crystalline ? ": POP vs BRC (Crystalline substitute)"
                              : " (throughput / VmHWM / unreclaimed)"),
             p.ds, crystalline ? "1,2,4" : "2,4",
             crystalline ? "NR,BRC,EBR,HazardPtrPOP,HazardEraPOP,EpochPOP" : "",
             {p.key_range, heavy_reads ? read : update,
              crystalline ? 200u : 150u, threshold(512)});
    }
  }

  // §4.1.2: oversubscription, POP's acknowledged worst case (a reclaimer
  // waits for descheduled threads to publish); thread counts run past
  // the core count.
  figure("ablation-oversubscription",
         "Ablation: oversubscription sweep, HMHT 16K update-heavy (counts "
         "beyond the core count are oversubscribed)",
         "HMHT", "1,2,4,8,16,32", "HP,HPAsym,EBR,HazardPtrPOP,EpochPOP,NBR",
         {16384, update, 150, threshold(512)});

  // SmrConfig ablations: retire_threshold (the paper's reclaimFreq: lower
  // = more signals per op for POP, higher = more garbage held), EpochPOP's
  // C multiplier (how eagerly the POP fallback fires), and epoch_freq.
  for (const uint64_t t : {32, 128, 512, 2048, 8192}) {
    figure("ablation-threshold-" + std::to_string(t),
           "Ablation (a): retire_threshold " + std::to_string(t) +
               ", HML 2K update-heavy",
           "HML", "4", "HazardPtrPOP,EpochPOP,HP,NBR",
           {2048, update, 150, threshold(t)});
  }
  for (const uint64_t c : {2, 4, 8}) {
    smr::SmrConfig cfg = threshold(256);
    cfg.pop_multiplier = c;
    figure("ablation-pop-multiplier-" + std::to_string(c),
           "Ablation (b): EpochPOP C multiplier " + std::to_string(c) +
               ", HMHT 16K update-heavy, threshold 256",
           "HMHT", "4", "EpochPOP", {16384, update, 150, cfg});
  }
  for (const uint64_t f : {1, 16, 64, 256}) {
    smr::SmrConfig cfg = threshold(512);
    cfg.epoch_freq = f;
    figure("ablation-epoch-freq-" + std::to_string(f),
           "Ablation (c): epoch_freq " + std::to_string(f) +
               ", EBR vs EpochPOP, DGT 8K update-heavy",
           "DGT", "4", "EBR,EpochPOP", {8192, update, 150, cfg});
  }

  // Put-ratio sweep: put is insert-or-replace and every replace retires
  // the displaced node, so raising the ratio dials up the short-lived-node
  // reclamation traffic set-only mixes never produce. A fixed 5/5
  // insert/erase background keeps membership churning, so puts keep
  // splitting into inserts and replaces; the rest is get.
  for (const uint32_t pct : {0, 10, 50, 90}) {
    PhaseSpec kv = phase("kv", 0, 5, 5, 1.0);
    kv.pct_put = pct;
    figure("kv-put-" + std::to_string(pct),
           "KV put ratio " + std::to_string(pct) +
               "%: 5i/5d, put = insert-or-replace (each replace retires "
               "the displaced node), rest get",
           "HML,HMHT", "4", "", {0, kv, 200, smr::SmrConfig{}});
  }

  // Resize deficit: a "storm" that fills the key range from a cold table,
  // then mixed "steady" traffic. RHHT is provisioned for key_range / D
  // (D = 64 forces ~6 doublings mid-storm); the fixed HMHT, provisioned
  // for the full range, is the reference: bench_scenarios prints RHHT's
  // steady-phase Mops as a ratio to HMHT's, its recovery from the storm.
  for (const uint64_t d : {1, 16, 64}) {
    ScenarioEntry& e = add(
        "grow-storm-" + std::to_string(d),
        "Resize deficit " + std::to_string(d) +
            ": RHHT provisioned for key_range/" + std::to_string(d) +
            " fills under 70i/20p, then 10i/10d/20p steady; fixed HMHT "
            "provisioned for the full range is the reference",
        [d](ScenarioSpec& s, const ScenarioBuild& b, double sc) {
          s.prefill = 0;  // the storm is the fill: growth happens under load
          s.initial_capacity = s.ds == "RHHT"
                                   ? std::max<uint64_t>(2, s.key_range / d)
                                   : s.key_range;
          for (PhaseSpec p : {phase("storm", 200, 70, 0, sc),
                              phase("steady", 200, 10, 10, sc)}) {
            p.pct_put = 20;
            if (b.duration_ms) p.duration_ms = b.duration_ms;
            s.phases.push_back(p);
          }
        });
    e.ds = "HMHT,RHHT";
    e.in_all = false;
  }
  return r;
}

ScenarioSpec build_cell(const ScenarioEntry& e, const ScenarioBuild& b,
                        double sc) {
  ScenarioSpec s;
  s.name = e.name;
  s.ds = b.ds;
  s.smr = b.smr;
  s.threads = std::max(1, b.threads);
  s.key_range = b.key_range ? b.key_range : default_range(b.ds);
  // Any scenario can run sharded (bench_scenarios sweeps the axis); only
  // the sharded-* scenarios default it above 1.
  s.shards = b.shards > 0 ? b.shards : e.shards;
  e.build(s, b, sc);
  return s;
}

}  // namespace

const std::vector<ScenarioEntry>& scenario_registry() {
  static const std::vector<ScenarioEntry> registry = build_registry();
  return registry;
}

const ScenarioEntry* find_scenario(const std::string& name) {
  for (const auto& e : scenario_registry()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::vector<const ScenarioEntry*> select_scenarios(const std::string& pattern) {
  std::vector<const ScenarioEntry*> out;
  for (const auto& e : scenario_registry()) {
    if (pattern == "all" ? e.in_all
                         : fnmatch(pattern.c_str(), e.name.c_str(), 0) == 0) {
      out.push_back(&e);
    }
  }
  return out;
}

std::optional<ScenarioSpec> make_scenario(const std::string& name,
                                          const ScenarioBuild& b) {
  const ScenarioEntry* e = find_scenario(name);
  if (e == nullptr) return std::nullopt;
  return build_cell(*e, b, b.time_scale > 0 ? b.time_scale : 1.0);
}

}  // namespace pop::workload
