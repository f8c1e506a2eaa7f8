// Unified observability layer: latency histograms, event tracing, hardware
// counters, and row-stamping for the JSONL rail.
//
// Design rule: the disabled path compiles to (almost) nothing. Every hook
// below reduces to one relaxed atomic load plus a predictable branch when
// the corresponding channel is off; tests/obs/test_obs_overhead.cpp pins
// that cost under 2% of a ~100 ns op.
//
// Channels and their knobs (CLI flags in bench/cli.hpp seed the env vars
// without overriding, so CI env wins, same as every other bench knob):
//   latency   POPSMR_OBS_LATENCY=1   / --latency      / ScenarioSpec.obs
//   tracing   POPSMR_TRACE=<path>    / --trace <path>
//   hardware  POPSMR_OBS_HW=1       / --hw-counters  / ScenarioSpec.obs
//   ring size POPSMR_TRACE_RING=<events per thread, default 8192>

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "obs/latency_histo.hpp"
#include "obs/trace_ring.hpp"

namespace pop::obs {

// Everything the engine/driver times, point ops and reclamation side.
enum class LatOp : int {
  kGet = 0,
  kPut,
  kInsert,
  kRemove,
  // Server-side drain of one pipelined batch inside one SMR batch
  // bracket (src/net/server.cpp) — not a point op (excluded from the
  // merged point-op summary by kPointOpCount).
  kNetBatch,
  kPingWave,
  kSweep,
  kReap,
  kCount,
};

inline constexpr int kLatOpCount = static_cast<int>(LatOp::kCount);
inline constexpr int kPointOpCount = 4;  // kGet..kRemove

inline const char* lat_op_name(LatOp op) {
  switch (op) {
    case LatOp::kGet:      return "get";
    case LatOp::kPut:      return "put";
    case LatOp::kInsert:   return "insert";
    case LatOp::kRemove:   return "remove";
    case LatOp::kNetBatch: return "net_batch";
    case LatOp::kPingWave: return "ping_wave";
    case LatOp::kSweep:    return "sweep";
    case LatOp::kReap:     return "reap";
    default:               return "unknown";
  }
}

namespace detail {
// 0 = uninitialized (consult env on first query), 1 = off, 2 = on.
extern std::atomic<int> g_latency_state;
extern std::atomic<int> g_hw_state;
extern std::atomic<int> g_trace_state;
int latency_init_slow();
int hw_init_slow();
int trace_init_slow();
void record_latency_slow(LatOp op, uint64_t ns);
void trace_event_slow(TraceKind k, uint64_t t_ns, uint64_t dur_ns,
                      uint32_t arg);
}  // namespace detail

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process-wide run identity for JSONL rows: run_id is the wall-clock ns at
// first use (monotonic across successive runs, stable within one), ts is
// the per-row wall-clock in ms since the epoch.
uint64_t run_id();
uint64_t wall_ts_ms();

// ---- channel toggles -------------------------------------------------------

inline bool latency_on() {
  int s = detail::g_latency_state.load(std::memory_order_relaxed);
  if (s == 0) s = detail::latency_init_slow();
  return s == 2;
}

inline bool hw_on() {
  int s = detail::g_hw_state.load(std::memory_order_relaxed);
  if (s == 0) s = detail::hw_init_slow();
  return s == 2;
}

inline bool trace_on() {
  int s = detail::g_trace_state.load(std::memory_order_relaxed);
  if (s == 0) s = detail::trace_init_slow();
  return s == 2;
}

// Programmatic overrides (ScenarioSpec.obs, tests).
void set_latency(bool on);
void set_hw(bool on);

// Force env evaluation of all three channels now (bench mains call this
// after CLI parsing so the first hot-path query is just a load).
void init_from_env();

// ---- latency ---------------------------------------------------------------

// Record one duration into the calling thread's histogram for `op`.
inline void record_latency(LatOp op, uint64_t ns) {
  if (!latency_on()) return;
  detail::record_latency_slow(op, ns);
}

// Merged view across all threads for one op kind. Cheap enough to take at
// phase boundaries; diff two snapshots for an interval.
HistoSnapshot latency_snapshot(LatOp op);

// Quiescent-only: zero every thread's histograms (tests).
void latency_reset();

// ---- tracing ---------------------------------------------------------------

// Append an event to the calling thread's ring. No-op unless tracing is
// armed. `t_ns` is the event start (now_ns clock); `dur_ns` 0 for instants.
inline void trace_event(TraceKind k, uint64_t t_ns, uint64_t dur_ns,
                        uint32_t arg = 0) {
  if (!trace_on()) return;
  detail::trace_event_slow(k, t_ns, dur_ns, arg);
}

// Arm tracing with an output path (POPSMR_TRACE does this lazily).
// ring_capacity 0 means POPSMR_TRACE_RING or the 8192 default.
void arm_trace(const std::string& path, uint32_t ring_capacity = 0);
void disarm_trace();

// Dump every thread's ring as Chrome trace-event JSON ("traceEvents"
// array; Perfetto-openable). dump_trace() writes to the armed path.
// Returns false when nothing is armed / the file cannot be written.
bool dump_trace();
bool dump_trace_to(const std::string& path);

// Collected view for tests: every stable event, sorted by timestamp.
std::vector<TraceEvent> trace_collect();

// Total events lost to ring wraparound (disclosed in the dump's metadata).
uint64_t trace_dropped();

}  // namespace pop::obs
