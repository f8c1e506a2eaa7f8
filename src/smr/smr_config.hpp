// Configuration and statistics shared by all reclamation schemes.
#pragma once

#include <cstdint>

namespace pop::smr {

struct SmrConfig {
  // Reservation slots per thread (the paper's MAX_HP). The bundled data
  // structures use at most 4.
  int num_slots = 8;

  // Retires between reclamation passes (the paper's reclaimFreq; 24K in
  // the main experiments, 2K in Figure 4). EpochPOP's epoch sweep does
  // not use it: a thread sweeps when its own tick moves the epoch, once
  // per epoch_freq of its operations (core/epoch_pop.hpp). Its POP
  // fallback fires at pop_multiplier times this, counted in retire-list
  // length, as in Algorithm 3.
  uint64_t retire_threshold = 512;

  // Operations between global-epoch advances for the epoch-based schemes
  // (EBR, IBR, EpochPOP: epochFreq).
  uint64_t epoch_freq = 64;

  // EpochPOP's C: the POP fallback fires when the retire list reaches
  // C * retire_threshold despite EBR-mode reclamation.
  uint64_t pop_multiplier = 2;

  // Memory-pressure backstop: when the domain-wide unreclaimed count
  // (retired - freed) exceeds this bound, the next retire forces a
  // reclamation pass regardless of the normal cadence, then degrades to
  // defer-and-warn if the pass cannot relieve the pressure (a pinned
  // reservation can legitimately hold nodes). 0 = use the
  // POPSMR_PRESSURE_BOUND environment override, or no bound if unset.
  uint64_t pressure_bound = 0;

  bool operator==(const SmrConfig&) const = default;
};

// Per-thread counters, and (summed with absorb) the domain-wide snapshot
// reported to callers. Plain u64s: each cell is written by its owning
// thread only (SWMR), torn reads by reporting threads at quiescence are
// benign.
struct ThreadStats {
  uint64_t retired = 0;
  uint64_t freed = 0;
  uint64_t scans = 0;            // reclamation passes
  uint64_t signals_sent = 0;     // pings issued as a reclaimer
  uint64_t pings_received = 0;   // handler executions
  uint64_t neutralized = 0;      // NBR restarts taken
  uint64_t ebr_frees = 0;        // EpochPOP: freed on the epoch fast path
  uint64_t pop_frees = 0;        // EpochPOP: freed via the POP fallback
  uint64_t max_retire_len = 0;   // high-watermark of the retire list
  uint64_t waves_timed_out = 0;  // handshakes abandoned at the deadline
  uint64_t tids_reaped = 0;      // dead tids certified + neutralized
  uint64_t orphans_adopted = 0;  // retired nodes adopted from dead tids
  uint64_t pressure_events = 0;  // unreclaimed crossed the pressure bound
  uint64_t forced_handshakes = 0;  // reclamation passes forced by pressure

  uint64_t unreclaimed() const { return retired - freed; }

  // Adds a per-thread cell or another snapshot (the service layer rolls
  // one snapshot per shard into a total); max_retire_len takes the max.
  void absorb(const ThreadStats& t) {
    each_counter(*this, t, [](uint64_t& a, uint64_t b) { a += b; });
    if (t.max_retire_len > max_retire_len) max_retire_len = t.max_retire_len;
  }

  // This snapshot minus an earlier one: the counters a phase added.
  // max_retire_len is a high-watermark, so it keeps this (the later)
  // value rather than a delta.
  ThreadStats since(const ThreadStats& earlier) const {
    ThreadStats d = *this;
    each_counter(d, earlier, [](uint64_t& a, uint64_t b) { a -= b; });
    return d;
  }

 private:
  // Every counter is listed once, here: absorb and since both walk it.
  template <class Fn>
  static void each_counter(ThreadStats& a, const ThreadStats& b, Fn&& fn) {
    static_assert(sizeof(ThreadStats) == 14 * sizeof(uint64_t),
                  "a new counter must be added to each_counter()");
    fn(a.retired, b.retired);
    fn(a.freed, b.freed);
    fn(a.scans, b.scans);
    fn(a.signals_sent, b.signals_sent);
    fn(a.pings_received, b.pings_received);
    fn(a.neutralized, b.neutralized);
    fn(a.ebr_frees, b.ebr_frees);
    fn(a.pop_frees, b.pop_frees);
    fn(a.waves_timed_out, b.waves_timed_out);
    fn(a.tids_reaped, b.tids_reaped);
    fn(a.orphans_adopted, b.orphans_adopted);
    fn(a.pressure_events, b.pressure_events);
    fn(a.forced_handshakes, b.forced_handshakes);
  }
};

using StatsSnapshot = ThreadStats;

}  // namespace pop::smr
