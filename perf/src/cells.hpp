// The two kinds of measured cell every workload runs:
//
//   InprocCell  one scheme's map built with ds::make_kv and prefilled,
//               then windows of kWorkers closed-loop workers replaying
//               their streams;
//   WireCell    an in-process NetServer (kWireScheme, kServerShards) over
//               loopback, driven by kClients pipelined connections in
//               open-loop (kWireRateOps) or closed-loop windows.
//
// A cell times its set-up once, then runs as many windows as the caller
// asks for; each window starts with an untimed warm-up, and everything it
// measures is a difference of counters read at its two ends. finish()
// stops the cell at quiescence and checks the map's outputs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "ds/iset.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/latency_histo.hpp"
#include "runtime/pool_alloc.hpp"
#include "smr/smr_config.hpp"
#include "spans.hpp"

namespace perf {

struct Setup {
  double build_s = 0;    // structure (and server) construction
  double prefill_s = 0;  // prefill, in-process or over the wire
  double total() const { return build_s + prefill_s; }
};

struct Checks {
  uint64_t attempted = 0;  // ops issued, warm-up included
  uint64_t failed = 0;     // ops or invariants whose check failed
  // Keys by which maps written with put came out smaller than their ops
  // reported; see check_map().
  uint64_t size_deficit = 0;
  void add(const Checks& o) {
    attempted += o.attempted;
    failed += o.failed;
    size_deficit += o.size_deficit;
  }
};

// Checks a quiescent map over its key space [0, keys):
//   - a get() of every key finds exactly size_slow() keys, and every hit
//     holds a value that encodes its key;
//   - size_slow() equals `expected`, prefill + inserts - removes as the
//     ops reported them.
// The library's put can report kInserted for a key that was present:
// while one put replaces a key's node, a helping traversal may unlink the
// marked node, and a concurrent put or insert of that key then inserts it
// afresh. So when `puts` is set, a map smaller than `expected` is counted
// in size_deficit and reported on stderr instead of failing; a larger one
// still fails.
void check_map(pop::ds::IKV& m, uint64_t keys, uint64_t expected, bool puts,
               const std::string& where, Checks& c);

// The kWorkers in-process worker threads, pinned once and kept for the
// whole run. Fresh threads per window would take whatever registry tids
// are free; a map keeps each departed tid's partial retire list until that
// tid comes back, so thread churn alone would move unreclaimed counts.
class Workers {
 public:
  explicit Workers(const CpuPlan& cpus);
  ~Workers();

  // Starts fn(i) on worker i, for every worker; wait() returns when all
  // have finished.
  void start(std::function<void(int)> fn);
  void wait();

  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

 private:
  void loop(int i);

  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void(int)> job_;  // guarded by mu_
  uint64_t generation_ = 0;        // guarded by mu_
  int running_ = 0;                // guarded by mu_
  bool stop_ = false;              // guarded by mu_
  std::vector<std::thread> threads_;
};

struct WindowPlan {
  double warmup_s = 0.1;
  double untraced_s = 0;  // tracing off
  double traced_s = 0;    // every op timed, obs latency channel armed
  // Ends the traced window early once this many nodes were retired (the
  // NR reference cell, which never frees). 0: no limit.
  uint64_t leak_budget = 0;
};

struct WindowResult {
  double mops_untraced = 0;
  double mops_traced = 0;
  // retired - freed, sampled every 10 ms over the first timed phase.
  std::vector<uint64_t> unreclaimed;

  // Traced window only.
  double traced_wall_s = 0;
  uint64_t ops = 0;
  uint64_t gets = 0, get_ns = 0;        // IKV::get
  uint64_t updates = 0, update_ns = 0;  // put / insert / remove
  uint64_t span_ns = 0;  // every IKV call, the stalled reader's park too
  pop::obs::HistoSnapshot op_hist;
  pop::smr::StatsSnapshot smr;  // deltas
  pop::runtime::PoolAllocator::Stats pool{};
  pop::obs::HistoSnapshot sweep, ping_wave;
};

class InprocCell {
 public:
  InprocCell(const Workload& w, const Inputs& in, const char* scheme,
             Workers& workers, Spans& spans, uint64_t parent_span);
  ~InprocCell();

  const Setup& setup() const { return setup_; }
  WindowResult run_window(const WindowPlan& plan);
  // Checks the map's size at quiescence and frees it. Returns every op
  // attempted and every check failed.
  Checks finish();

  InprocCell(const InprocCell&) = delete;
  InprocCell& operator=(const InprocCell&) = delete;

 private:
  const Workload& w_;
  const Inputs& in_;
  const char* scheme_;
  Workers& workers_;
  Spans& spans_;
  uint64_t parent_span_;
  std::unique_ptr<pop::ds::IKV> map_;
  Setup setup_;
  Checks checks_;
  uint64_t size_ = 0;          // prefill + inserts - removes so far
  std::vector<uint64_t> pos_;  // each worker's stream position
};

struct OpenLoopResult {
  std::vector<uint64_t> lat_ns;  // from each batch's due time
  std::vector<uint64_t> rtt_ns;  // from the send (traced only)
  std::vector<uint64_t> lag_ns;  // send minus due (traced only)
  // Traced only: the server side over the window.
  double server_batch_us_p50 = 0, server_batch_us_p99 = 0;
  double ops_per_batch = 0;
};

class WireCell {
 public:
  WireCell(const Workload& w, const Inputs& in, const CpuPlan& cpus,
           Spans& spans, uint64_t parent_span);
  ~WireCell();

  const Setup& setup() const { return setup_; }
  OpenLoopResult run_open(double warmup_s, double seconds, bool traced);
  double run_closed(double warmup_s, double seconds);  // kops
  // Stops the server, then checks that it answered and counted every
  // request and that the map's size matches the answers.
  Checks finish();
  // Max / min ops over the server's shards, after finish().
  double shard_skew() const { return shard_skew_; }

  WireCell(const WireCell&) = delete;
  WireCell& operator=(const WireCell&) = delete;

 private:
  // Warm-up, then one timed window: open loop when interval_ns > 0 (and
  // `open` gets the latencies), closed loop otherwise. `traced` arms the
  // server-side latency channel over the window. Returns answered kops.
  double run_segment(const char* name, uint64_t interval_ns, double warmup_s,
                     double seconds, OpenLoopResult* open, bool traced);

  const Workload& w_;
  const Inputs& in_;
  const CpuPlan& cpus_;
  Spans& spans_;
  uint64_t parent_span_;
  std::unique_ptr<pop::net::NetServer> server_;
  std::vector<std::unique_ptr<pop::net::NetClient>> clients_;
  Setup setup_;
  Checks checks_;
  uint64_t size_ = 0;
  uint64_t sent_ = 0;            // requests answered, prefill included
  std::vector<uint64_t> pos_;    // each client's stream position
  double shard_skew_ = 0;
  bool finished_ = false;
};

// Single-thread probes on the Domain API, the pool and the framing
// functions. `scale` shrinks the iteration counts (smoke runs).
void run_probes(double scale, const CpuPlan& cpus, Metrics& out,
                Spans& spans, uint64_t parent_span);

}  // namespace perf
