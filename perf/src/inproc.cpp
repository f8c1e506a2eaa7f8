// In-process cell: windows of kWorkers pinned closed-loop workers on one
// IKV.
#include <atomic>
#include <cstdio>
#include <thread>

#include "cells.hpp"
#include "obs/obs.hpp"

namespace perf {

namespace {

using pop::ds::IKV;

constexpr int kChunk = 64;                // ops between control checks
constexpr uint64_t kTickNs = 10'000'000;  // coordinator / sampler period

enum Phase : int { kWarmup, kUntraced, kTraced, kStop };

struct alignas(64) OpsSlot {
  std::atomic<uint64_t> ops{0};
};

struct Control {
  std::atomic<int> phase{kWarmup};
  std::atomic<bool> park{false};
  std::atomic<bool> release{false};
  OpsSlot slots[kWorkers];
};

struct alignas(64) Tally {  // one per worker, written on every op
  uint64_t ops = 0, inserted = 0, removed = 0, bad = 0;
  // Traced phase only.
  uint64_t gets = 0, get_ns = 0, updates = 0, update_ns = 0;
  uint64_t op_ns = 0, park_ns = 0;
  pop::obs::HistoSnapshot hist;
  std::vector<Span> spans;
};

const char* op_name(Op op) {
  switch (op) {
    case Op::kGet: return "get";
    case Op::kPut: return "put";
    case Op::kInsert: return "insert";
    case Op::kRemove: return "remove";
  }
  return "?";
}

template <bool kTimed>
void run_chunk(IKV& m, const uint32_t* stream, uint64_t& pos, uint64_t& tag,
               Tally& t, Spans& spans, int lane, uint64_t parent) {
  for (int i = 0; i < kChunk; ++i, ++pos) {
    const uint32_t code = stream[pos & kStreamMask];
    const uint64_t key = key_of(code);
    const Op op = op_of(code);
    uint64_t t0 = 0;
    if constexpr (kTimed) t0 = now_ns();
    switch (op) {
      case Op::kGet: {
        uint64_t v = 0;
        if (m.get(key, &v) && !value_matches(key, v)) ++t.bad;
        break;
      }
      case Op::kPut:
        if (m.put(key, encode_value(key, ++tag)) ==
            pop::ds::PutResult::kInserted) {
          ++t.inserted;
        }
        break;
      case Op::kInsert:
        if (m.insert(key)) ++t.inserted;
        break;
      case Op::kRemove:
        if (m.remove(key)) ++t.removed;
        break;
    }
    if constexpr (kTimed) {
      const uint64_t t1 = now_ns();
      const uint64_t dt = t1 - t0;
      t.op_ns += dt;
      t.hist.add(dt);
      if (op == Op::kGet) {
        ++t.gets;
        t.get_ns += dt;
      } else {
        ++t.updates;
        t.update_ns += dt;
      }
      if (pos % kOpSampleEvery == 0) {
        Span s;
        s.name = op_name(op);
        s.lane = lane;
        s.id = spans.next_id();
        s.parent = parent;
        s.start_ns = t0;
        s.end_ns = t1;
        s.sampled = true;
        t.spans.push_back(s);
      }
    }
  }
  t.ops += kChunk;
}

void worker_main(IKV& m, const std::vector<uint32_t>& stream,
                 uint64_t& saved_pos, int w, bool victim, Control& ctl,
                 Tally& t, Spans& spans, uint64_t window_span) {
  const int lane = kLaneWorker0 + w;
  // A local copy: the saved positions of all workers share a cache line.
  uint64_t pos = saved_pos;
  // Writer tag: worker in the top nibble, so values differ per writer.
  uint64_t tag = static_cast<uint64_t>(w + 1) << 28;
  Span ws;  // this worker's traced stretch
  ws.name = "worker";
  ws.lane = lane;
  ws.parent = window_span;
  for (;;) {
    const int ph = ctl.phase.load(std::memory_order_acquire);
    if (ph == kStop) break;
    const bool timed = ph == kTraced;
    if (timed && ws.id == 0) {
      ws.id = spans.next_id();
      ws.start_ns = now_ns();
    }
    if (victim && ctl.park.load(std::memory_order_acquire)) {
      const uint64_t t0 = now_ns();
      m.park_in_operation(ctl.release);
      if (timed) {
        Span p;
        p.name = "park";
        p.lane = lane;
        p.id = spans.next_id();
        p.parent = ws.id;
        p.start_ns = t0;
        p.end_ns = now_ns();
        t.park_ns += p.end_ns - p.start_ns;
        t.spans.push_back(p);
      }
      continue;
    }
    if (timed) {
      run_chunk<true>(m, stream.data(), pos, tag, t, spans, lane, ws.id);
      ws.end_ns = now_ns();
    } else {
      run_chunk<false>(m, stream.data(), pos, tag, t, spans, lane, 0);
    }
    ctl.slots[w].ops.store(t.ops, std::memory_order_relaxed);
  }
  if (ws.id != 0) {
    ws.covered_ns = t.op_ns;  // sampled op spans only stand for these
    t.spans.push_back(ws);
  }
  saved_pos = pos;
  m.detach_thread();
}

// Counters read at both ends of a timed window.
struct Snap {
  uint64_t t = 0;
  uint64_t ops = 0;
  pop::smr::StatsSnapshot smr;
  pop::runtime::PoolAllocator::Stats pool{};
  pop::obs::HistoSnapshot sweep, ping_wave;
};

Snap snap(const IKV& m, const Control& ctl, bool histos) {
  Snap s;
  s.t = now_ns();
  for (const auto& slot : ctl.slots) {
    s.ops += slot.ops.load(std::memory_order_relaxed);
  }
  s.smr = m.smr_stats();
  s.pool = pop::runtime::PoolAllocator::instance().stats();
  if (histos) {
    s.sweep = pop::obs::latency_snapshot(pop::obs::LatOp::kSweep);
    s.ping_wave = pop::obs::latency_snapshot(pop::obs::LatOp::kPingWave);
  }
  return s;
}

pop::smr::StatsSnapshot smr_delta(const pop::smr::StatsSnapshot& a,
                                  const pop::smr::StatsSnapshot& b) {
  pop::smr::StatsSnapshot d = b;
  d.retired -= a.retired;
  d.freed -= a.freed;
  d.scans -= a.scans;
  d.signals_sent -= a.signals_sent;
  d.pings_received -= a.pings_received;
  d.ebr_frees -= a.ebr_frees;
  d.pop_frees -= a.pop_frees;
  return d;
}

double mops_between(const Snap& a, const Snap& b) {
  return b.t > a.t ? static_cast<double>(b.ops - a.ops) * 1e3 /
                         static_cast<double>(b.t - a.t)
                   : 0;
}

}  // namespace

void check_map(IKV& m, uint64_t keys, uint64_t expected, bool puts,
               const std::string& where, Checks& c) {
  uint64_t found = 0;
  uint64_t bad = 0;
  for (uint64_t k = 0; k < keys; ++k) {
    uint64_t v = 0;
    if (m.get(k, &v)) {
      ++found;
      if (!value_matches(k, v)) ++bad;
    }
  }
  m.detach_thread();
  c.attempted += keys;
  c.failed += bad;
  const auto ull = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  const uint64_t size = m.size_slow();
  if (bad != 0) {
    std::fprintf(stderr, "perf: %s: %llu keys hold a value that does not "
                 "encode the key\n", where.c_str(), ull(bad));
  }
  if (found != size) {
    ++c.failed;
    std::fprintf(stderr, "perf: %s: get() finds %llu keys, size_slow() "
                 "reports %llu\n", where.c_str(), ull(found), ull(size));
  }
  if (size == expected) return;
  if (puts && size < expected) {
    c.size_deficit += expected - size;
    std::fprintf(stderr, "perf: %s: size_slow() %llu is %llu short of prefill "
                 "+ inserts - removes (puts that reported kInserted for a "
                 "present key)\n", where.c_str(), ull(size),
                 ull(expected - size));
    return;
  }
  ++c.failed;
  std::fprintf(stderr, "perf: %s: size_slow() %llu != prefill + inserts - "
               "removes = %llu\n", where.c_str(), ull(size), ull(expected));
}

Workers::Workers(const CpuPlan& cpus) {
  for (int i = 0; i < kWorkers; ++i) {
    const int cpu = cpus.workers[i];
    const bool pin = cpus.pin;
    threads_.emplace_back([this, i, cpu, pin] {
      pin_self({cpu}, pin);
      loop(i);
    });
  }
}

Workers::~Workers() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Workers::start(std::function<void(int)> fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = std::move(fn);
    running_ = kWorkers;
    ++generation_;
  }
  cv_.notify_all();
}

void Workers::wait() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return running_ == 0; });
}

void Workers::loop(int i) {
  uint64_t seen = 0;
  for (;;) {
    std::function<void(int)> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    job(i);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --running_;
    }
    cv_.notify_all();
  }
}

InprocCell::InprocCell(const Workload& w, const Inputs& in, const char* scheme,
                       Workers& workers, Spans& spans, uint64_t parent_span)
    : w_(w), in_(in), scheme_(scheme), workers_(workers), spans_(spans),
      parent_span_(parent_span), pos_(kWorkers, 0) {
  pop::ds::SetConfig cfg;
  cfg.capacity = w.keys;
  const uint64_t t_build = now_ns();
  {
    SpanScope s(spans_, "build", kLaneCoord, parent_span_, scheme_);
    map_ = pop::ds::make_kv(w.ds, scheme, cfg);
  }
  const uint64_t t_prefill = now_ns();
  if (!map_) {
    checks_.failed = 1;
    return;
  }
  {
    SpanScope s(spans_, "prefill", kLaneCoord, parent_span_, scheme_);
    for (uint64_t key : in.prefill) size_ += map_->insert(key) ? 1 : 0;
    map_->detach_thread();
  }
  setup_.build_s = static_cast<double>(t_prefill - t_build) / 1e9;
  setup_.prefill_s = static_cast<double>(now_ns() - t_prefill) / 1e9;
  checks_.attempted += in.prefill.size();
  checks_.failed += in.prefill.size() - size_;
}

InprocCell::~InprocCell() { finish(); }

WindowResult InprocCell::run_window(const WindowPlan& plan) {
  WindowResult r;
  if (!map_) return r;
  IKV& m = *map_;
  SpanScope window(spans_, "window", kLaneCoord, parent_span_, scheme_);
  Control ctl;
  std::vector<Tally> tallies(kWorkers);
  workers_.start([&](int i) {
    worker_main(m, in_.workers[i], pos_[i], i, w_.stall && i == kWorkers - 1,
                ctl, tallies[i], spans_, window.id());
  });

  struct Phase {
    int phase;
    double seconds;
  };
  std::vector<Phase> phases = {{kWarmup, plan.warmup_s}};
  if (plan.untraced_s > 0) phases.push_back({kUntraced, plan.untraced_s});
  if (plan.traced_s > 0) phases.push_back({kTraced, plan.traced_s});

  uint64_t next_tick = now_ns();
  bool parked = false;
  bool first_timed = true;
  for (const Phase& ph : phases) {
    const bool traced = ph.phase == kTraced;
    const bool sampling = ph.phase != kWarmup && first_timed;
    const size_t samples = static_cast<size_t>(ph.seconds * 1e9 / kTickNs) + 2;
    if (sampling) r.unreclaimed.reserve(samples);
    if (traced) pop::obs::set_latency(true);
    const Snap a = snap(m, ctl, traced);
    ctl.phase.store(ph.phase, std::memory_order_release);
    const uint64_t t_end = a.t + static_cast<uint64_t>(ph.seconds * 1e9);
    for (;;) {
      next_tick += kTickNs;
      sleep_until_ns(next_tick < t_end ? next_tick : t_end);
      const uint64_t now = now_ns();
      const pop::smr::StatsSnapshot st = m.smr_stats();
      if (sampling) r.unreclaimed.push_back(st.unreclaimed());
      if (w_.stall) {
        const uint64_t at = (now - a.t) % kParkPeriodNs;
        const bool want = ph.phase != kWarmup && now < t_end &&
                          at >= kParkFromNs && at < kParkFromNs + kParkNs;
        if (want && !parked) {
          ctl.release.store(false, std::memory_order_release);
          ctl.park.store(true, std::memory_order_release);
        } else if (!want && parked) {
          ctl.park.store(false, std::memory_order_release);
          ctl.release.store(true, std::memory_order_release);
        }
        parked = want;
      }
      const bool over_budget = plan.leak_budget != 0 && traced &&
                               st.retired - a.smr.retired >= plan.leak_budget;
      if (now >= t_end || over_budget) break;
    }
    if (ph.phase == kWarmup) continue;
    const Snap b = snap(m, ctl, traced);
    if (traced) pop::obs::set_latency(false);
    first_timed = false;
    if (ph.phase == kUntraced) {
      r.mops_untraced = mops_between(a, b);
      continue;
    }
    r.mops_traced = mops_between(a, b);
    r.traced_wall_s = static_cast<double>(b.t - a.t) / 1e9;
    r.smr = smr_delta(a.smr, b.smr);
    r.pool.allocated_blocks = b.pool.allocated_blocks - a.pool.allocated_blocks;
    r.pool.freed_blocks = b.pool.freed_blocks - a.pool.freed_blocks;
    r.pool.remote_frees = b.pool.remote_frees - a.pool.remote_frees;
    r.pool.remote_splices = b.pool.remote_splices - a.pool.remote_splices;
    r.sweep = b.sweep.diff(a.sweep);
    r.ping_wave = b.ping_wave.diff(a.ping_wave);
  }
  ctl.phase.store(kStop, std::memory_order_release);
  ctl.park.store(false, std::memory_order_release);
  ctl.release.store(true, std::memory_order_release);
  workers_.wait();

  for (auto& t : tallies) {
    checks_.attempted += t.ops;
    checks_.failed += t.bad;
    if (t.bad != 0) {
      std::fprintf(stderr, "perf: %s/%s: %llu get hits returned a value "
                   "that does not encode the key\n", w_.name, scheme_,
                   static_cast<unsigned long long>(t.bad));
    }
    size_ += t.inserted;
    size_ -= t.removed;
    r.ops += t.gets + t.updates;
    r.gets += t.gets;
    r.get_ns += t.get_ns;
    r.updates += t.updates;
    r.update_ns += t.update_ns;
    r.span_ns += t.op_ns + t.park_ns;
    r.op_hist.merge(t.hist);
    spans_.add(std::move(t.spans));
  }
  return r;
}

Checks InprocCell::finish() {
  if (!map_) return checks_;
  check_map(*map_, w_.keys, size_, w_.mix.put != 0,
            std::string(w_.name) + "/" + scheme_, checks_);
  {
    SpanScope s(spans_, "teardown", kLaneCoord, parent_span_, scheme_);
    map_.reset();
  }
  return checks_;
}

}  // namespace perf
