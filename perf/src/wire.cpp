// Wire cell: an in-process NetServer over loopback, driven by kClients
// pinned connections with kPipeline-deep batches.
#include <atomic>
#include <cstdio>
#include <thread>

#include "cells.hpp"
#include "obs/obs.hpp"
#include "service/sharded_map.hpp"

namespace perf {

namespace {

using pop::net::NetClient;
using pop::net::Request;
using pop::net::Response;
using pop::net::Status;

enum Phase : int { kWarmup, kTimed, kStop };

// Prefill requests per exec_batch: set-up time is then the server's work,
// not a few thousand loopback round trips.
constexpr int kPrefillBatch = 256;

// Builds the next batch from the client's stream. The wire has no
// insert-if-absent: inserts go out as PUTs.
void next_batch(const std::vector<uint32_t>& stream, uint64_t& pos,
                uint64_t& tag, std::vector<Request>& reqs) {
  reqs.clear();
  for (int i = 0; i < kPipeline; ++i, ++pos) {
    const uint32_t code = stream[pos & kStreamMask];
    const uint64_t key = key_of(code);
    switch (op_of(code)) {
      case Op::kGet:
        reqs.push_back({pop::net::Op::kGet, key, 0});
        break;
      case Op::kPut:
      case Op::kInsert:
        reqs.push_back({pop::net::Op::kPut, key, encode_value(key, ++tag)});
        break;
      case Op::kRemove:
        reqs.push_back({pop::net::Op::kDel, key, 0});
        break;
    }
  }
}

// One client's counters for one segment.
struct alignas(64) Tally {
  std::atomic<uint64_t> sent{0};  // requests answered, published per batch
  uint64_t inserted = 0, removed = 0, bad = 0;
  bool broken = false;   // the connection failed mid-run
  uint64_t busy_ns = 0;  // inside exec_batch while timed
  std::vector<uint64_t> lat_ns, rtt_ns, lag_ns;  // open loop, timed
  std::vector<Span> spans;
};

// Every response must answer its own request: the right kind of status,
// and a GET hit must carry a value that encodes the key asked for.
void check_batch(const std::vector<Request>& reqs,
                 const std::vector<Response>& resps, Tally& t) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Response& r = resps[i];
    switch (reqs[i].op) {
      case pop::net::Op::kGet:
        if (r.status == Status::kHit) {
          if (!value_matches(reqs[i].key, r.val)) ++t.bad;
        } else if (r.status != Status::kMiss) {
          ++t.bad;
        }
        break;
      case pop::net::Op::kPut:
        if (r.status == Status::kInserted) {
          ++t.inserted;
        } else if (r.status != Status::kReplaced) {
          ++t.bad;
        }
        break;
      case pop::net::Op::kDel:
        if (r.status == Status::kHit) {
          ++t.removed;
        } else if (r.status != Status::kMiss) {
          ++t.bad;
        }
        break;
      case pop::net::Op::kPing:
        if (r.status != Status::kPong) ++t.bad;
        break;
    }
  }
}

// One client thread for one segment: open loop when interval_ns > 0
// (a batch is due every interval_ns, sent when due or at once if late),
// closed loop otherwise.
void client_main(NetClient& c, const std::vector<uint32_t>& stream,
                 uint64_t& saved_pos, int i, uint64_t interval_ns,
                 std::atomic<int>& phase, bool traced, Tally& t,
                 const CpuPlan& cpus, Spans& spans, uint64_t seg_span) {
  pin_self({cpus.clients[i]}, cpus.pin);
  uint64_t pos = saved_pos;  // the clients' saved positions share a line
  uint64_t tag = static_cast<uint64_t>(i + 1) << 28;  // writer tag
  const int lane = kLaneClient0 + i;
  std::vector<Request> reqs;
  std::vector<Response> resps;
  std::vector<uint64_t> lat;
  Span cs;
  cs.name = "client";
  cs.lane = lane;
  cs.parent = seg_span;
  uint64_t batches = 0;
  // Stagger the two clients by half an interval.
  uint64_t due = now_ns() + interval_ns * static_cast<uint64_t>(i) / 2;
  for (;;) {
    int ph = phase.load(std::memory_order_acquire);
    if (interval_ns != 0) {
      while (now_ns() < due && ph != kStop) {
        ph = phase.load(std::memory_order_acquire);
      }
    }
    if (ph == kStop) break;
    next_batch(stream, pos, tag, reqs);
    const uint64_t t_call = now_ns();
    if (!c.exec_batch(reqs, &resps, &lat)) {
      t.broken = true;
      break;
    }
    const uint64_t t_done = now_ns();
    check_batch(reqs, resps, t);
    t.sent.store(t.sent.load(std::memory_order_relaxed) + reqs.size(),
                 std::memory_order_relaxed);
    if (ph == kTimed) {
      if (cs.id == 0 && spans.on()) {
        cs.id = spans.next_id();
        cs.start_ns = t_call;
      }
      cs.end_ns = t_done;
      t.busy_ns += t_done - t_call;
      if (spans.on() && ++batches % kOpSampleEvery == 0) {
        Span b;
        b.name = "batch";
        b.lane = lane;
        b.id = spans.next_id();
        b.parent = cs.id;
        b.start_ns = t_call;
        b.end_ns = t_done;
        b.sampled = true;
        t.spans.push_back(b);
      }
      if (interval_ns != 0) {
        const uint64_t lag = t_call > due ? t_call - due : 0;
        for (uint64_t l : lat) t.lat_ns.push_back(lag + l);
        if (traced) {
          t.lag_ns.push_back(lag);
          t.rtt_ns.insert(t.rtt_ns.end(), lat.begin(), lat.end());
        }
      }
    }
    due += interval_ns;
  }
  if (cs.id != 0) {
    cs.covered_ns = t.busy_ns;
    t.spans.push_back(cs);
  }
  saved_pos = pos;
}

}  // namespace

WireCell::WireCell(const Workload& w, const Inputs& in, const CpuPlan& cpus,
                   Spans& spans, uint64_t parent_span)
    : w_(w), in_(in), cpus_(cpus), spans_(spans),
      parent_span_(parent_span), pos_(kClients, 0) {
  pop::net::NetServerConfig cfg;
  cfg.ds = w.ds;
  cfg.smr = kWireScheme;
  cfg.shards = kServerShards;
  cfg.workers = kServerWorkers;
  cfg.port = 0;
  cfg.set.capacity = w.keys;
  const uint64_t t_build = now_ns();
  {
    SpanScope s(spans_, "build", kLaneCoord, parent_span_, "wire");
    server_ = pop::net::NetServer::create(cfg);
    if (!server_) {
      checks_.failed = 1;
      return;
    }
    // The epoll workers inherit the affinity of the thread that starts them.
    pin_self({cpus.server[0], cpus.server[1]}, cpus.pin);
    server_->start();
    pin_self({cpus.coord}, cpus.pin);
    for (int i = 0; i < kClients; ++i) {
      clients_.push_back(std::make_unique<NetClient>());
      if (!clients_.back()->connect_tcp("127.0.0.1", server_->port())) {
        checks_.failed = 1;
        return;
      }
    }
  }
  const uint64_t t_prefill = now_ns();
  {
    SpanScope s(spans_, "prefill", kLaneCoord, parent_span_, "wire");
    // From client 0's CPU: the coordinator's CPU also runs an epoll
    // worker, and sharing it would make every batch a context switch.
    pin_self({cpus.clients[0]}, cpus.pin);
    Tally t;
    std::vector<Request> reqs;
    std::vector<Response> resps;
    for (size_t k = 0; k < in.prefill.size();) {
      reqs.clear();
      for (int p = 0; p < kPrefillBatch && k < in.prefill.size(); ++p, ++k) {
        const uint64_t key = in.prefill[k];
        reqs.push_back({pop::net::Op::kPut, key, encode_value(key, 0)});
      }
      if (!clients_[0]->exec_batch(reqs, &resps)) {
        checks_.failed += 1;
        break;
      }
      check_batch(reqs, resps, t);
      sent_ += reqs.size();
    }
    size_ = t.inserted;
    checks_.attempted += in.prefill.size();
    checks_.failed += t.bad + (in.prefill.size() - t.inserted);
    pin_self({cpus.coord}, cpus.pin);
  }
  setup_.build_s = static_cast<double>(t_prefill - t_build) / 1e9;
  setup_.prefill_s = static_cast<double>(now_ns() - t_prefill) / 1e9;
}

WireCell::~WireCell() { finish(); }

double WireCell::run_segment(const char* name, uint64_t interval_ns,
                             double warmup_s, double seconds,
                             OpenLoopResult* open, bool traced) {
  if (!server_ || finished_) return 0;
  SpanScope seg(spans_, name, kLaneCoord, parent_span_, "wire");
  std::vector<Tally> tallies(kClients);
  if (open) {
    for (auto& t : tallies) {
      t.lat_ns.reserve(
          static_cast<size_t>(seconds * kWireRateOps / kClients * 1.2));
    }
  }
  std::atomic<int> phase{kWarmup};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back(client_main, std::ref(*clients_[i]),
                         std::cref(in_.clients[i]), std::ref(pos_[i]), i,
                         interval_ns, std::ref(phase), traced,
                         std::ref(tallies[i]), std::cref(cpus_),
                         std::ref(spans_), seg.id());
  }
  auto sent = [&] {
    uint64_t n = 0;
    for (const auto& t : tallies) n += t.sent.load(std::memory_order_relaxed);
    return n;
  };
  sleep_until_ns(now_ns() + static_cast<uint64_t>(warmup_s * 1e9));
  // The server's own counters may only be read once it has stopped, so the
  // window's batches come from its net_batch histogram (one sample per
  // batch) and its requests from the clients.
  if (traced) pop::obs::set_latency(true);
  const pop::obs::HistoSnapshot h0 =
      traced ? pop::obs::latency_snapshot(pop::obs::LatOp::kNetBatch)
             : pop::obs::HistoSnapshot{};
  const uint64_t t0 = now_ns();
  const uint64_t n0 = sent();
  phase.store(kTimed, std::memory_order_release);
  sleep_until_ns(t0 + static_cast<uint64_t>(seconds * 1e9));
  phase.store(kStop, std::memory_order_release);
  const uint64_t t1 = now_ns();
  const uint64_t n1 = sent();
  if (traced && open) {
    const pop::obs::HistoSnapshot h =
        pop::obs::latency_snapshot(pop::obs::LatOp::kNetBatch).diff(h0);
    open->server_batch_us_p50 = static_cast<double>(h.percentile(50)) / 1e3;
    open->server_batch_us_p99 = static_cast<double>(h.percentile(99)) / 1e3;
    open->ops_per_batch =
        h.total ? static_cast<double>(n1 - n0) / static_cast<double>(h.total)
                : 0;
  }
  if (traced) pop::obs::set_latency(false);
  for (auto& t : threads) t.join();

  for (auto& t : tallies) {
    const uint64_t n = t.sent.load(std::memory_order_relaxed);
    sent_ += n;
    checks_.attempted += n;
    checks_.failed += t.bad + (t.broken ? 1 : 0);
    size_ += t.inserted;
    size_ -= t.removed;
    if (open) {
      open->lat_ns.insert(open->lat_ns.end(), t.lat_ns.begin(), t.lat_ns.end());
      open->rtt_ns.insert(open->rtt_ns.end(), t.rtt_ns.begin(), t.rtt_ns.end());
      open->lag_ns.insert(open->lag_ns.end(), t.lag_ns.begin(), t.lag_ns.end());
    }
    spans_.add(std::move(t.spans));
  }
  return t1 > t0 ? static_cast<double>(n1 - n0) * 1e6 /
                       static_cast<double>(t1 - t0)
                 : 0;
}

OpenLoopResult WireCell::run_open(double warmup_s, double seconds,
                                  bool traced) {
  OpenLoopResult r;
  const auto interval_ns =
      static_cast<uint64_t>(kPipeline * 1e9 / (kWireRateOps / kClients));
  run_segment("open-loop", interval_ns, warmup_s, seconds, &r, traced);
  return r;
}

double WireCell::run_closed(double warmup_s, double seconds) {
  return run_segment("closed-loop", 0, warmup_s, seconds, nullptr, false);
}

Checks WireCell::finish() {
  if (finished_) return checks_;
  finished_ = true;
  if (!server_) return checks_;
  clients_.clear();
  server_->stop();
  // Every request the clients sent was answered and counted, and the map
  // holds exactly what the answers say it should.
  const uint64_t served = server_->total_stats().ops;
  if (served != sent_) {
    checks_.failed += 1;
    std::fprintf(stderr, "perf: %s/wire: server counted %llu ops, clients "
                 "sent %llu\n", w_.name, static_cast<unsigned long long>(served),
                 static_cast<unsigned long long>(sent_));
  }
  // Inserts and updates both go out as PUTs.
  check_map(server_->map(), w_.keys, size_, true,
            std::string(w_.name) + "/wire", checks_);
  if (auto* sharded =
          dynamic_cast<pop::service::ShardedMap*>(&server_->map())) {
    const pop::service::ServiceStats ss = sharded->service_stats();
    const uint64_t lo = ss.ops_min_shard();
    shard_skew_ = lo ? static_cast<double>(ss.ops_max_shard()) /
                           static_cast<double>(lo)
                     : 0;
  }
  {
    SpanScope s(spans_, "teardown", kLaneCoord, parent_span_, "wire");
    server_.reset();
  }
  return checks_;
}

}  // namespace perf
