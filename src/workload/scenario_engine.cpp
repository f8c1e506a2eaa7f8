#include "workload/scenario_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "ds/iset.hpp"
#include "obs/hw_counters.hpp"
#include "obs/obs.hpp"
#include "runtime/fault_inject.hpp"
#include "runtime/padded.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/proc_stats.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_registry.hpp"
#include "service/sharded_map.hpp"
#include "smr/audit.hpp"
#include "workload/key_dist.hpp"

namespace pop::workload {

namespace {

using Clock = std::chrono::steady_clock;

// Read-your-writes ledger states (values a worker knows it wrote use the
// remaining space; both sentinels are unreachable as real values because
// workers tag puts with a nonzero high byte below kRwAbsent's).
constexpr uint64_t kRwUnknown = UINT64_MAX;
constexpr uint64_t kRwAbsent = UINT64_MAX - 1;

// Per-slot control word, written rarely by the coordinator and polled
// once per operation by the owning worker (a read-mostly private line).
struct SlotCtrl {
  std::atomic<bool> exit_now{false};
  std::atomic<bool> park{false};
  // Crash fault: the worker opens an SMR bracket and exits without
  // closing it or detaching (see FaultSpec::thread_kill).
  std::atomic<bool> die{false};
  // Registry tid of the slot's current worker; -1 until it registers.
  std::atomic<int> tid{-1};
};

// Prefill to half the key range (paper §5.0.2): every other key keeps
// the fill deterministic across schemes so structures are comparable.
// Insertion *order* matters per structure: descending for lists (each
// key becomes the new minimum, found right after the head: O(1) per
// insert instead of O(n)); BFS-midpoint for the external BST (produces
// a balanced tree instead of a degenerate chain). The (a,b)-tree and
// hash table are insensitive, and take the midpoint order too.
void prefill_set(ds::IKV& set, const ScenarioSpec& spec) {
  const uint64_t prefill =
      spec.prefill == UINT64_MAX ? spec.key_range / 2 : spec.prefill;
  const uint64_t nkeys = spec.key_range / 2;  // even keys 0,2,4,...
  uint64_t inserted = 0;
  if (spec.ds == "HML" || spec.ds == "LL") {
    for (uint64_t i = nkeys; i >= 1 && inserted < prefill; --i) {
      inserted += set.insert((i - 1) * 2);
    }
  } else {
    // BFS over index ranges: insert the middle even key of each segment.
    std::vector<std::pair<uint64_t, uint64_t>> queue_;
    queue_.reserve(64);
    queue_.emplace_back(0, nkeys);
    for (size_t qi = 0; qi < queue_.size() && inserted < prefill; ++qi) {
      const auto [lo, hi] = queue_[qi];
      if (lo >= hi) continue;
      const uint64_t mid = lo + (hi - lo) / 2;
      inserted += set.insert(mid * 2);
      queue_.emplace_back(lo, mid);
      queue_.emplace_back(mid + 1, hi);
    }
  }
  // Odd keys (still balanced enough) if a caller asked for more than half.
  for (uint64_t k = 1; k < spec.key_range && inserted < prefill; k += 2) {
    inserted += set.insert(k);
  }
  set.detach_thread();
}

// Mid-run probes read the SWMR counters racily; a torn read can catch a
// batched sweep between retired and freed and see freed ahead — saturate
// instead of wrapping.
uint64_t unreclaimed_now(const ds::IKV& set) {
  const auto s = set.smr_stats();
  return s.freed > s.retired ? 0 : s.retired - s.freed;
}

uint64_t ms_since(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0)
          .count());
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec_in) {
  ScenarioSpec spec = spec_in;
  ScenarioResult res;
  // Snapshot the contract-sanitizer counter so res reports this run's
  // delta, not violations accumulated by earlier runs in the process.
  const uint64_t audit_before = smr::audit::violations();
  res.warnings = normalize(spec);
  for (const auto& w : res.warnings) {
    std::fprintf(stderr, "popsmr scenario '%s': %s\n", spec.name.c_str(),
                 w.c_str());
  }

  ds::SetConfig sc;
  // The resize axis: provision for initial_capacity when set (an under-
  // provisioned resizable table has to grow its way out mid-run), else
  // for the full key range.
  sc.capacity =
      spec.initial_capacity > 0 ? spec.initial_capacity : spec.key_range;
  sc.load_factor = spec.load_factor;
  sc.smr = spec.smr_cfg;
  // Sharded specs run against a ShardedMap (one SMR domain per shard);
  // shards == 1 takes the monolithic path with zero routing overhead.
  service::ShardHash hash = service::ShardHash::kSplitMix64;
  (void)service::parse_shard_hash(spec.shard_hash, &hash);
  service::ShardedMap* sharded = nullptr;
  std::unique_ptr<ds::IKV> set;
  if (spec.shards > 1) {
    service::ShardedMapConfig smc;
    smc.shards = spec.shards;
    smc.hash = hash;
    smc.set = sc;
    auto sm = service::ShardedMap::create(spec.ds, spec.smr, smc);
    sharded = sm.get();
    set = std::move(sm);
  } else {
    set = ds::make_kv(spec.ds, spec.smr, sc);
  }
  if (set == nullptr) {
    std::fprintf(stderr, "unknown ds/smr: %s/%s\n", spec.ds.c_str(),
                 spec.smr.c_str());
    std::abort();
  }
  prefill_set(*set, spec);

  const int nph = static_cast<int>(spec.phases.size());
  int max_threads = 1;
  for (const auto& p : spec.phases) max_threads = std::max(max_threads, p.threads);

  // Shared Zipf tables: one per distinct theta (all phases draw over the
  // same key range), built once and read immutably by every worker.
  std::vector<std::unique_ptr<runtime::ZipfTable>> zipf_tables;
  std::vector<KeyPicker> pickers;
  pickers.reserve(nph);
  for (const auto& p : spec.phases) {
    const runtime::ZipfTable* table = nullptr;
    if (p.keys.kind == KeyDist::kZipfian) {
      for (const auto& t : zipf_tables) {
        if (t->theta() == p.keys.zipf_theta) table = t.get();
      }
      if (table == nullptr) {
        zipf_tables.push_back(std::make_unique<runtime::ZipfTable>(
            spec.key_range, p.keys.zipf_theta));
        table = zipf_tables.back().get();
      }
    }
    pickers.emplace_back(p.keys, spec.key_range, table);
  }

  std::atomic<bool> go{false};
  std::atomic<int> phase_idx{0};
  std::atomic<uint64_t> hot_window{0};
  std::atomic<bool> park_release{false};
  std::atomic<bool> victim_parked{false};
  std::vector<runtime::Padded<SlotCtrl>> ctrl(max_threads);
  std::vector<runtime::Padded<OpCounts>> counts(
      static_cast<size_t>(max_threads) * nph);

  // Any phase running the read-your-writes checker makes workers keep a
  // per-key ledger of their own writes (worker-private key stripes).
  bool any_rw = false;
  for (const auto& p : spec.phases) any_rw |= p.read_your_writes;

  // ---- observability channels ---------------------------------------------
  // Spec toggles OR with the process-wide env/CLI channels. Forcing the
  // global latency flag on for the run (restored at the end) lets the
  // reclamation-side hooks in DomainCore/PopEngine see the same switch
  // the worker loop branches on.
  const bool lat_prev = obs::latency_on();
  const bool lat_on = spec.obs.latency || lat_prev;
  if (lat_on && !lat_prev) obs::set_latency(true);
  const bool hw_en = spec.obs.hw || obs::hw_on();
  // Per-(slot, phase) hardware-counter cells: perf_event_open binds to
  // the calling thread, so each worker opens its own counters and flushes
  // a delta into its cell at every phase transition and on every exit
  // path. The owner is the only writer; the coordinator reads after the
  // join.
  std::vector<runtime::Padded<obs::HwSample>> hw_cells(
      hw_en ? static_cast<size_t>(max_threads) * nph : 0);

  auto worker_body = [&](int slot, uint64_t generation) {
    // Legacy seed for generation 0 keeps one-phase uniform runs
    // bit-comparable with the pre-engine driver; churned replacements
    // perturb it so a recycled slot doesn't replay its predecessor.
    runtime::Xoshiro256 rng(0x9E3779B9ull * (slot + 1) + 12345 +
                            generation * 0xD1342543DE82EF95ull);
    std::vector<uint64_t> rw_expect;
    if (any_rw) rw_expect.assign(spec.key_range, kRwUnknown);
    // Unique, monotonic put values: (slot, generation) salt | sequence.
    const uint64_t val_salt = (static_cast<uint64_t>(slot + 1) << 48) |
                              ((generation & 0xFF) << 40);
    uint64_t val_seq = 0;
    SlotCtrl& my_ctrl = *ctrl[slot];
    // Register before the start barrier and publish the tid: the fault
    // coordinator resolves victims (signal-loss target, kill slots) by
    // registry tid, which must exist before any fault can be scheduled.
    my_ctrl.tid.store(runtime::my_tid(), std::memory_order_release);
    // This worker's hardware counters; hw_flush folds the delta since the
    // last flush into the (slot, phase) cell of the phase that just ended.
    std::unique_ptr<obs::HwCounters> hc;
    obs::HwSample hw_last;
    int hw_phase = 0;
    if (hw_en) {
      hc = std::make_unique<obs::HwCounters>();
      hw_last = hc->read();
    }
    auto hw_flush = [&](int next_phase) {
      if (!hc) return;
      const obs::HwSample cur = hc->read();
      hw_cells[static_cast<size_t>(slot) * nph + hw_phase]->accumulate(
          cur.delta(hw_last));
      hw_last = cur;
      hw_phase = next_phase;
    };
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (;;) {
      const int p = phase_idx.load(std::memory_order_acquire);
      if (hw_en && p != hw_phase) hw_flush(p < nph ? p : nph - 1);
      if (p >= nph) break;
      if (my_ctrl.exit_now.load(std::memory_order_relaxed)) break;
      if (my_ctrl.die.load(std::memory_order_relaxed)) {
        // Crash fault: die inside a critical section. The bracket is left
        // open, detach_thread never runs, and (kill_zombie) the registry
        // slot is leaked so only tgkill certification can reclaim it.
        hw_flush(hw_phase);  // the corpse's counters still count
        set->abandon_in_operation();
        if (spec.faults.kill_zombie) {
          runtime::ThreadRegistry::instance().detail_abandon_registration();
        }
        return;
      }
      if (my_ctrl.park.load(std::memory_order_relaxed)) {
        victim_parked.store(true, std::memory_order_release);
        set->park_in_operation(park_release);
        victim_parked.store(false, std::memory_order_release);
        my_ctrl.park.store(false, std::memory_order_relaxed);
        continue;
      }
      const PhaseSpec& ph = spec.phases[p];
      if (slot >= ph.threads) {
        // Inactive this phase: stay registered, run nothing.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      OpCounts& my = *counts[static_cast<size_t>(slot) * nph + p];
      ++my.ops;
      // One clock read before and after the op when the latency channel
      // is on; the branch below costs a relaxed load + predictable jump
      // when it is off (the <2% contract tests/obs pins down).
      const uint64_t lat_t0 = lat_on ? obs::now_ns() : 0;
      obs::LatOp lat_kind = obs::LatOp::kGet;
      if (ph.split_readers_writers && slot < ph.threads / 2) {
        // Dedicated reader (Figure 4): full-range gets only.
        my.get_hits += set->get(rng.next_below(spec.key_range), nullptr);
        ++my.reads;
        ++my.gets;
      } else if (ph.split_readers_writers) {
        // Dedicated updater near the head of the structure.
        const uint64_t k = rng.next_below(ph.writer_key_range);
        if (rng.percent(50)) {
          (void)set->insert(k);
          ++my.inserts;
          lat_kind = obs::LatOp::kInsert;
        } else {
          (void)set->remove(k);
          ++my.erases;
          lat_kind = obs::LatOp::kRemove;
        }
        ++my.updates;
      } else {
        uint64_t k = pickers[p].next(
            rng, hot_window.load(std::memory_order_relaxed));
        const bool rw = ph.read_your_writes;
        if (rw) {
          // Confine the key to this worker's private stripe
          // (k ≡ slot mod active threads) so the ledger below is the
          // single source of truth for it.
          const uint64_t nact = static_cast<uint64_t>(ph.threads);
          k = k - k % nact + static_cast<uint64_t>(slot);
          if (k >= spec.key_range) k -= nact;
        }
        const uint64_t dice = rng.next_below(100);
        // The ledger checks below also validate op OUTCOMES, not just the
        // follow-up get: on a private stripe, an insert/put/remove over a
        // key whose state the ledger knows must report the matching
        // outcome (a put that lost its key would otherwise reinsert and
        // read back clean, hiding the loss).
        if (dice < ph.pct_insert) {
          const bool inserted = set->insert(k);
          ++my.inserts;
          ++my.updates;
          lat_kind = obs::LatOp::kInsert;
          if (rw) {
            const uint64_t e = rw_expect[k];
            if ((e == kRwAbsent && !inserted) ||
                (e != kRwAbsent && e != kRwUnknown && inserted)) {
              ++my.rw_violations;
            }
            if (inserted) rw_expect[k] = k;  // insert stores value == key
          }
        } else if (dice < ph.pct_insert + ph.pct_erase) {
          const bool removed = set->remove(k);
          ++my.erases;
          ++my.updates;
          lat_kind = obs::LatOp::kRemove;
          if (rw) {
            const uint64_t e = rw_expect[k];
            if ((e == kRwAbsent && removed) ||
                (e != kRwAbsent && e != kRwUnknown && !removed)) {
              ++my.rw_violations;
            }
            rw_expect[k] = kRwAbsent;
            uint64_t got = 0;
            if (set->get(k, &got)) ++my.rw_violations;
          }
        } else if (dice < ph.pct_insert + ph.pct_erase + ph.pct_put) {
          const uint64_t v = val_salt | ++val_seq;
          const ds::PutResult pr = set->put(k, v);
          if (pr == ds::PutResult::kReplaced) ++my.put_replaced;
          ++my.puts;
          ++my.updates;
          lat_kind = obs::LatOp::kPut;
          if (rw) {
            const uint64_t e = rw_expect[k];
            if ((e == kRwAbsent && pr != ds::PutResult::kInserted) ||
                (e != kRwAbsent && e != kRwUnknown &&
                 pr != ds::PutResult::kReplaced)) {
              ++my.rw_violations;
            }
            rw_expect[k] = v;
            uint64_t got = 0;
            if (!set->get(k, &got) || got != v) ++my.rw_violations;
          }
        } else {
          uint64_t got = 0;
          const bool hit = set->get(k, &got);
          my.get_hits += hit;
          ++my.gets;
          ++my.reads;
          if (rw) {
            const uint64_t e = rw_expect[k];
            if (hit && (e == kRwAbsent || (e != kRwUnknown && got != e))) {
              ++my.rw_violations;
            } else if (!hit && e != kRwAbsent && e != kRwUnknown) {
              ++my.rw_violations;
            }
          }
        }
      }
      if (lat_on) obs::record_latency(lat_kind, obs::now_ns() - lat_t0);
    }
    hw_flush(hw_phase);
    set->detach_thread();
  };

  std::vector<std::thread> workers;
  workers.reserve(max_threads);
  std::vector<uint64_t> generation(max_threads, 0);
  for (int s = 0; s < max_threads; ++s) workers.emplace_back(worker_body, s, 0);

  // ---- background memory-timeline sampler ---------------------------------
  std::atomic<bool> sampler_stop{false};
  std::vector<MemSample> samples;
  std::thread sampler;
  const auto t0 = Clock::now();
  if (spec.mem_sample_every_ms > 0) {
    sampler = std::thread([&] {
      const auto cadence =
          std::chrono::milliseconds(spec.mem_sample_every_ms);
      auto next = Clock::now();
      while (!sampler_stop.load(std::memory_order_acquire)) {
        MemSample m;
        m.t_ms = ms_since(t0);
        m.phase = std::min(phase_idx.load(std::memory_order_acquire), nph - 1);
        m.vm_rss_kib = runtime::vm_rss_kib();
        m.vm_hwm_kib = runtime::vm_hwm_kib();
        const auto s = set->smr_stats();  // racy-but-benign SWMR reads
        m.retired = s.retired;
        m.freed = s.freed;
        const auto ps = runtime::PoolAllocator::instance().stats();
        m.pool_allocated = ps.allocated_blocks;
        m.pool_freed = ps.freed_blocks;
        m.victim_parked = victim_parked.load(std::memory_order_acquire);
        samples.push_back(m);
        next += cadence;
        std::this_thread::sleep_until(next);
      }
    });
  }

  // ---- coordinator: phase schedule + churn + stall + faults ---------------
  auto& faults = runtime::FaultInjection::instance();
  const uint64_t dropped_before = faults.dropped();
  const bool loss_on = spec.faults.signal_loss;
  bool loss_armed = false;
  if (loss_on) {
    // Victim = the stall victim's registry tid when the stall injector is
    // on (the cell where a reclaimer pings a parked thread and the ping
    // never lands); otherwise every ping target rolls the dice.
    int victim_tid = -1;
    if (spec.stall.enabled) {
      while ((victim_tid = ctrl[spec.stall.victim]->tid.load(
                  std::memory_order_acquire)) < 0) {
        std::this_thread::yield();
      }
    }
    faults.arm_signal_loss(spec.faults.signal_loss_pct, victim_tid);
    loss_armed = true;
  }
  const auto loss_stop_at =
      t0 + std::chrono::milliseconds(spec.faults.signal_loss_stop_after_ms);

  const bool kill_on = spec.faults.thread_kill;
  auto next_kill = t0 + std::chrono::milliseconds(spec.faults.kill_after_ms);
  int kills_left = kill_on ? spec.faults.kills : 0;
  int kill_rr = 0;
  std::vector<bool> slot_dead(max_threads, false);
  uint64_t kill_baseline = 0;

  go.store(true, std::memory_order_release);

  const bool churn_on = spec.churn.enabled;
  auto next_churn = t0 + std::chrono::milliseconds(spec.churn.interval_ms);
  int churn_rr = 0;  // round-robin slot cursor

  const bool stall_on = spec.stall.enabled;
  enum class StallStage { kPending, kParked, kDone };
  StallStage stall_stage = stall_on ? StallStage::kPending : StallStage::kDone;
  const auto park_at = t0 + std::chrono::milliseconds(spec.stall.park_after_ms);
  const auto resume_at =
      park_at + std::chrono::milliseconds(spec.stall.park_for_ms);

  std::vector<smr::StatsSnapshot> boundary(nph + 1);
  std::vector<Clock::time_point> boundary_t(nph + 1);
  boundary[0] = set->smr_stats();
  boundary_t[0] = t0;

  // Latency boundary snapshots ride alongside the SMR ones: one merged
  // point-op snapshot per boundary (diff of merges == merge of diffs,
  // so per-phase summaries come out of adjacent boundaries), plus
  // per-kind start/end snapshots for the whole-run per-op rows.
  std::vector<obs::HistoSnapshot> lat_boundary(lat_on ? nph + 1 : 0);
  std::vector<obs::HistoSnapshot> lat_run_start(lat_on ? obs::kLatOpCount
                                                       : 0);
  auto lat_point_snapshot = [] {
    obs::HistoSnapshot s;
    for (int k = 0; k < obs::kPointOpCount; ++k) {
      s.merge(obs::latency_snapshot(static_cast<obs::LatOp>(k)));
    }
    return s;
  };
  if (lat_on) {
    for (int k = 0; k < obs::kLatOpCount; ++k) {
      lat_run_start[k] = obs::latency_snapshot(static_cast<obs::LatOp>(k));
    }
    for (int k = 0; k < obs::kPointOpCount; ++k) {
      lat_boundary[0].merge(lat_run_start[k]);
    }
  }
  if (obs::trace_on()) {
    obs::trace_event(obs::TraceKind::kScenarioBegin, obs::now_ns(), 0,
                     static_cast<uint32_t>(nph));
  }

  auto phase_end = t0;
  for (int p = 0; p < nph; ++p) {
    const PhaseSpec& ph = spec.phases[p];
    phase_end += std::chrono::milliseconds(ph.duration_ms);
    auto next_hot_move =
        Clock::now() + std::chrono::milliseconds(ph.keys.hot_move_every_ms);
    for (;;) {
      auto now = Clock::now();
      if (now >= phase_end) break;
      auto wake = phase_end;
      if (churn_on && next_churn < wake) wake = next_churn;
      if (stall_stage == StallStage::kPending && park_at < wake) wake = park_at;
      if (stall_stage == StallStage::kParked && resume_at < wake) {
        wake = resume_at;
      }
      if (kills_left > 0 && next_kill < wake) wake = next_kill;
      if (loss_armed && spec.faults.signal_loss_stop_after_ms > 0 &&
          loss_stop_at < wake) {
        wake = loss_stop_at;
      }
      if (ph.keys.hot_move_every_ms > 0 && next_hot_move < wake) {
        wake = next_hot_move;
      }
      std::this_thread::sleep_until(wake);
      now = Clock::now();

      if (loss_armed && spec.faults.signal_loss_stop_after_ms > 0 &&
          now >= loss_stop_at) {
        faults.disarm();  // restore signal delivery: recovery starts here
        loss_armed = false;
      }
      if (kills_left > 0 && now >= next_kill) {
        // Kill one worker mid-operation (round-robin over live slots,
        // never the stall victim — it cannot observe flags while asleep).
        int slot = -1;
        for (int probe = 0; probe < max_threads; ++probe) {
          const int cand = (kill_rr + probe) % max_threads;
          if (stall_on && cand == spec.stall.victim) continue;
          if (slot_dead[cand]) continue;
          slot = cand;
          break;
        }
        if (slot >= 0) {
          kill_rr = (slot + 1) % max_threads;
          if (res.kills == 0) {
            kill_baseline = unreclaimed_now(*set);
            res.first_kill_at_ms = ms_since(t0);
          }
          ctrl[slot]->die.store(true, std::memory_order_release);
          workers[slot].join();  // the corpse's SMR state is now frozen
          ctrl[slot]->die.store(false, std::memory_order_relaxed);
          if (spec.faults.respawn) {
            ctrl[slot]->tid.store(-1, std::memory_order_relaxed);
            workers[slot] = std::thread(worker_body, slot,
                                        ++generation[slot]);
          } else {
            slot_dead[slot] = true;
          }
          ++res.kills;
        }
        --kills_left;
        next_kill += std::chrono::milliseconds(
            spec.faults.kill_every_ms > 0 ? spec.faults.kill_every_ms : 1);
      }

      if (stall_stage == StallStage::kPending && now >= park_at) {
        res.baseline_unreclaimed = unreclaimed_now(*set);
        res.stall_parked_at_ms = ms_since(t0);
        ctrl[spec.stall.victim]->park.store(true, std::memory_order_release);
        stall_stage = StallStage::kParked;
      }
      if (stall_stage == StallStage::kParked && now >= resume_at) {
        // Probe the peak just before releasing: the sampler may be off
        // (or slower than the stall window).
        res.stall_peak_unreclaimed = unreclaimed_now(*set);
        res.stall_resumed_at_ms = ms_since(t0);
        park_release.store(true, std::memory_order_release);
        stall_stage = StallStage::kDone;
      }
      if (churn_on && now >= next_churn) {
        // Retire one worker (skipping a parked/parking victim: it cannot
        // observe exit flags while asleep) and respawn its slot; the old
        // thread's exit deregisters its tid, the replacement re-registers
        // and typically recycles the same slot with a bumped epoch.
        int slot = -1;
        for (int probe = 0; probe < max_threads; ++probe) {
          const int cand = (churn_rr + probe) % max_threads;
          if (stall_on && cand == spec.stall.victim) continue;
          if (slot_dead[cand]) continue;  // killed without respawn
          slot = cand;
          break;
        }
        if (slot >= 0) {
          churn_rr = (slot + 1) % max_threads;
          ctrl[slot]->exit_now.store(true, std::memory_order_release);
          workers[slot].join();  // TLS dtor has deregistered its tid here
          ctrl[slot]->exit_now.store(false, std::memory_order_relaxed);
          ctrl[slot]->tid.store(-1, std::memory_order_relaxed);
          workers[slot] = std::thread(worker_body, slot, ++generation[slot]);
          ++res.churn_cycles;
        }
        next_churn += std::chrono::milliseconds(spec.churn.interval_ms);
      }
      if (ph.keys.hot_move_every_ms > 0 && now >= next_hot_move) {
        hot_window.fetch_add(1, std::memory_order_relaxed);
        next_hot_move +=
            std::chrono::milliseconds(ph.keys.hot_move_every_ms);
      }
    }
    boundary[p + 1] = set->smr_stats();  // racy-but-benign: reporting only
    if (lat_on) lat_boundary[p + 1] = lat_point_snapshot();
    boundary_t[p + 1] = Clock::now();
    phase_idx.store(p + 1, std::memory_order_release);
  }

  // A stall window reaching past the end of the schedule must not wedge
  // the join: release the victim unconditionally.
  if (stall_stage == StallStage::kParked) {
    res.stall_peak_unreclaimed = unreclaimed_now(*set);
    res.stall_resumed_at_ms = ms_since(t0);
  }
  park_release.store(true, std::memory_order_release);
  for (auto& t : workers) {
    if (t.joinable()) t.join();  // killed-without-respawn slots are done
  }
  const auto t_end = Clock::now();
  if (obs::trace_on()) {
    obs::trace_event(obs::TraceKind::kScenarioEnd, obs::now_ns(), 0, 0);
  }
  // End-of-run per-kind snapshots (workers quiesced: these are exact).
  std::vector<obs::HistoSnapshot> lat_run_end(lat_on ? obs::kLatOpCount : 0);
  if (lat_on) {
    for (int k = 0; k < obs::kLatOpCount; ++k) {
      lat_run_end[k] = obs::latency_snapshot(static_cast<obs::LatOp>(k));
    }
  }

  if (loss_on) {
    faults.disarm();
    res.signals_suppressed = faults.dropped() - dropped_before;
  }

  sampler_stop.store(true, std::memory_order_release);
  if (sampler.joinable()) sampler.join();

  // ---- aggregation --------------------------------------------------------
  res.phases.resize(nph);
  for (int p = 0; p < nph; ++p) {
    PhaseResult& pr = res.phases[p];
    const PhaseSpec& ph = spec.phases[p];
    pr.name = ph.name;
    pr.threads = ph.threads;
    pr.seconds =
        std::chrono::duration<double>(boundary_t[p + 1] - boundary_t[p])
            .count();
    for (int s = 0; s < max_threads; ++s) {
      pr.accumulate(*counts[static_cast<size_t>(s) * nph + p]);
    }
    if (pr.seconds > 0) {
      pr.mops = static_cast<double>(pr.ops) / pr.seconds / 1e6;
      pr.read_mops = static_cast<double>(pr.reads) / pr.seconds / 1e6;
    }
    pr.smr_delta = boundary[p + 1].since(boundary[p]);
    pr.unreclaimed_end = boundary[p + 1].unreclaimed();
    if (lat_on) {
      pr.latency = obs::summarize(lat_boundary[p + 1].diff(lat_boundary[p]));
    }
    if (hw_en) {
      for (int s = 0; s < max_threads; ++s) {
        pr.hw.accumulate(*hw_cells[static_cast<size_t>(s) * nph + p]);
      }
      res.hw.accumulate(pr.hw);
    }
    res.accumulate(pr);
  }
  res.obs_hw_on = hw_en;
  if (lat_on) {
    res.obs_latency_on = true;
    obs::HistoSnapshot all_points;
    for (int k = 0; k < obs::kLatOpCount; ++k) {
      obs::HistoSnapshot d = lat_run_end[k].diff(lat_run_start[k]);
      if (k < obs::kPointOpCount) all_points.merge(d);
      if (d.total > 0) {
        res.latency.push_back({obs::lat_op_name(static_cast<obs::LatOp>(k)),
                               obs::summarize(d)});
      }
    }
    res.latency_all = obs::summarize(all_points);
    if (!lat_prev) obs::set_latency(false);  // restore the global switch
  }
  res.seconds = std::chrono::duration<double>(t_end - t0).count();
  if (res.seconds > 0) {
    res.mops = static_cast<double>(res.ops) / res.seconds / 1e6;
    res.read_mops = static_cast<double>(res.reads) / res.seconds / 1e6;
  }
  res.smr = set->smr_stats();
  {
    const ds::ResizeStats rs = set->resize_stats();
    res.grows = rs.grows;
    res.shrinks = rs.shrinks;
    res.buckets_final = rs.buckets;
  }
  if (sharded != nullptr) res.service = sharded->service_stats();
  res.vm_hwm_kib = runtime::vm_hwm_kib();
  res.final_size = set->size_slow();
  res.final_unreclaimed = res.smr.unreclaimed();
  res.samples = std::move(samples);
  for (const auto& m : res.samples) {
    if (m.victim_parked && m.unreclaimed() > res.stall_peak_unreclaimed) {
      res.stall_peak_unreclaimed = m.unreclaimed();
    }
  }
  // Post-kill recovery point: the first sampled time after the first kill
  // at which unreclaimed fell back to the pre-kill level (the reaper
  // adopted + swept the orphaned backlog).
  if (res.kills > 0) {
    for (const auto& m : res.samples) {
      if (m.t_ms <= res.first_kill_at_ms) continue;
      if (m.unreclaimed() <= kill_baseline) {
        res.recovered_at_ms = m.t_ms;
        break;
      }
    }
  }
  res.audit_on = smr::audit::on();
  res.audit_violations = smr::audit::violations() - audit_before;
  return res;
}

}  // namespace pop::workload
