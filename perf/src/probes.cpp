// Single-thread probes: the cost of one call into a layer, timed from
// outside with nothing else running. Each reports the median of kReps
// repetitions, in ns per call.
#include <algorithm>
#include <atomic>
#include <thread>

#include "cells.hpp"
#include "net/frame.hpp"
#include "runtime/pool_alloc.hpp"
#include "smr/all.hpp"

namespace perf {

namespace {

constexpr int kReps = 5;
constexpr int kChain = 64;

volatile uint64_t g_sink = 0;  // keeps probed results observable

struct ChainNode : pop::smr::Reclaimable {
  std::atomic<ChainNode*> next{nullptr};
  uint64_t key = 0;
};

template <class Fn>
double median_ns(Fn&& once) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) v.push_back(once());
  return median(v);
}

// Per protect() over a kChain-node chain, hand over hand, in one Guard.
template <class D>
double protect_ns(uint64_t walks) {
  D d;
  std::atomic<ChainNode*> head{nullptr};
  std::vector<ChainNode*> nodes;
  for (int i = 0; i < kChain; ++i) {
    auto* n = d.template create<ChainNode>();
    n->key = static_cast<uint64_t>(i);
    n->next.store(head.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    head.store(n, std::memory_order_release);
    nodes.push_back(n);
  }
  const double ns = median_ns([&] {
    uint64_t sum = 0;
    const uint64_t t0 = now_ns();
    for (uint64_t w = 0; w < walks; ++w) {
      typename D::Guard g(d);
      const std::atomic<ChainNode*>* src = &head;
      for (int i = 0; i < kChain; ++i) {
        ChainNode* n = d.protect(i & 1, *src);
        sum += n->key;
        src = &n->next;
      }
    }
    const uint64_t dt = now_ns() - t0;
    g_sink = sum;
    return static_cast<double>(dt) / static_cast<double>(walks * kChain);
  });
  for (ChainNode* n : nodes) pop::smr::destroy_unpublished(n);
  d.detach();
  return ns;
}

// One Guard entered and left.
template <class D>
double bracket_ns(uint64_t iters) {
  D d;
  { typename D::Guard g(d); }  // first attach is not the steady state
  const double ns = median_ns([&] {
    const uint64_t t0 = now_ns();
    for (uint64_t i = 0; i < iters; ++i) {
      typename D::Guard g(d);
    }
    return static_cast<double>(now_ns() - t0) / static_cast<double>(iters);
  });
  d.detach();
  return ns;
}

// create + retire, sweeps and ping waves amortised over the threshold.
template <class D>
double retire_ns(uint64_t iters) {
  D d;
  const double ns = median_ns([&] {
    const uint64_t t0 = now_ns();
    for (uint64_t i = 0; i < iters; i += kChain) {
      typename D::Guard g(d);
      for (int j = 0; j < kChain; ++j) {
        d.retire(d.template create<ChainNode>());
      }
    }
    return static_cast<double>(now_ns() - t0) / static_cast<double>(iters);
  });
  d.detach();
  return ns;
}

double alloc_free_ns(uint64_t iters) {
  auto& pool = pop::runtime::PoolAllocator::instance();
  return median_ns([&] {
    const uint64_t t0 = now_ns();
    for (uint64_t i = 0; i < iters; ++i) pool.deallocate(pool.allocate(64));
    return static_cast<double>(now_ns() - t0) / static_cast<double>(iters);
  });
}

// Per block through FreeBatch, the blocks allocated on another thread (the
// reclaimer's case: it frees nodes other threads allocated).
double batch_free_ns(uint64_t blocks, const CpuPlan& cpus) {
  auto& pool = pop::runtime::PoolAllocator::instance();
  return median_ns([&] {
    std::vector<void*> v(blocks);
    std::thread alloc([&] {
      pin_self({cpus.workers[1]}, cpus.pin);
      for (auto& p : v) p = pool.allocate(64);
    });
    alloc.join();
    const uint64_t t0 = now_ns();
    {
      pop::runtime::PoolAllocator::FreeBatch batch;
      for (void* p : v) batch.add(p);
    }
    return static_cast<double>(now_ns() - t0) / static_cast<double>(blocks);
  });
}

std::vector<pop::net::Request> sample_requests(size_t n) {
  std::vector<pop::net::Request> reqs;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = i * 2654435761u % 65536;
    switch (i % 10) {
      case 0:
        reqs.push_back({pop::net::Op::kPut, key, encode_value(key, i)});
        break;
      case 1:
        reqs.push_back({pop::net::Op::kDel, key, 0});
        break;
      default:
        reqs.push_back({pop::net::Op::kGet, key, 0});
    }
  }
  return reqs;
}

double encode_ns(const std::vector<pop::net::Request>& reqs, uint64_t reps) {
  std::vector<uint8_t> out;
  out.reserve(reqs.size() * (pop::net::kLenPrefix + pop::net::kMaxFrameBody));
  return median_ns([&] {
    const uint64_t t0 = now_ns();
    for (uint64_t r = 0; r < reps; ++r) {
      out.clear();
      for (const auto& q : reqs) pop::net::encode_request(q, out);
      g_sink = out.size();
    }
    return static_cast<double>(now_ns() - t0) /
           static_cast<double>(reps * reqs.size());
  });
}

// Per frame: feed the bytes to a FrameSplitter, split, decode.
double decode_ns(const std::vector<pop::net::Request>& reqs, uint64_t reps) {
  std::vector<uint8_t> wire;
  for (const auto& q : reqs) pop::net::encode_request(q, wire);
  return median_ns([&] {
    uint64_t sum = 0;
    const uint64_t t0 = now_ns();
    for (uint64_t r = 0; r < reps; ++r) {
      pop::net::FrameSplitter sp;
      sp.feed(wire.data(), wire.size());
      const uint8_t* body = nullptr;
      uint32_t len = 0;
      pop::net::Request q;
      while (sp.next(&body, &len) == pop::net::FrameSplitter::Result::kFrame) {
        if (pop::net::decode_request(body, len, &q)) sum += q.key;
      }
    }
    const uint64_t dt = now_ns() - t0;
    g_sink = sum;
    return static_cast<double>(dt) / static_cast<double>(reps * reqs.size());
  });
}

template <class D>
void smr_probes(const char* name, uint64_t n, Metrics& out) {
  const std::string s(name);
  out["smr.protect_ns." + s] = {protect_ns<D>(n / 64), "ns"};
  out["smr.bracket_ns." + s] = {bracket_ns<D>(n), "ns"};
  out["smr.retire_ns." + s] = {retire_ns<D>(n / 4), "ns"};
}

}  // namespace

void run_probes(double scale, const CpuPlan& cpus, Metrics& out, Spans& spans,
                uint64_t parent_span) {
  const uint64_t n =
      std::max<uint64_t>(static_cast<uint64_t>(scale * (1 << 20)), 1 << 14);
  std::thread probe([&] {
    pin_self({cpus.workers[0]}, cpus.pin);
    {
      SpanScope s(spans, "probe.smr", kLaneProbe, parent_span);
      smr_probes<pop::smr::HpDomain>("HP", n, out);
      smr_probes<pop::core::HazardPtrPopDomain>("HazardPtrPOP", n, out);
      smr_probes<pop::smr::EbrDomain>("EBR", n, out);
      smr_probes<pop::core::EpochPopDomain>("EpochPOP", n, out);
      out["smr.protect_ns.NR"] = {protect_ns<pop::smr::NrDomain>(n / 64), "ns"};
    }
    {
      SpanScope s(spans, "probe.runtime", kLaneProbe, parent_span);
      out["runtime.alloc_free_ns"] = {alloc_free_ns(n), "ns"};
      out["runtime.batch_free_ns"] = {batch_free_ns(n / 16, cpus), "ns"};
    }
    {
      SpanScope s(spans, "probe.net", kLaneProbe, parent_span);
      const auto reqs = sample_requests(4096);
      out["net.encode_ns"] = {encode_ns(reqs, n / 16384 + 1), "ns"};
      out["net.decode_ns"] = {decode_ns(reqs, n / 16384 + 1), "ns"};
    }
  });
  probe.join();
}

}  // namespace perf
