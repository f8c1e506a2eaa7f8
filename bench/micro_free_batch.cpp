// Free-path microbenchmark: per-node PoolAllocator::deallocate versus the
// batched FreeBatch path, under the cross-thread free pattern deferred
// reclamation produces (§5.0.1: a reclaimer frees large batches of blocks
// other threads allocated). Every thread allocates a slab of blocks; then
// every thread sweeps the other threads' blocks in the SAME order, freeing
// its slice of each — the reclamation-storm shape where all reclaimers hit
// threshold together and each retire list frees in allocation order.
// Both modes free onto the freeing thread's own lists with no
// synchronization per block; each full chunk past a thread's two-chunk
// private bound goes to the shared depot in one lock-free push, and the
// next allocation phase takes chunks back from it. Per-node mode pays a
// call, a header check and a global counter update per block; batch mode
// threads per-class chains inline and hands whole chunks on at once.
//
// Methodology: the two modes alternate within each round so both sample
// the same machine state, timing uses per-thread CPU time (robust to
// oversubscription), and the reported speedup is the median of per-round
// ratios.
//
// Knobs: POPSMR_BENCH_THREADS (default "8"), POPSMR_MICRO_BLOCKS (blocks
// per thread per round, default 4096), POPSMR_MICRO_ROUNDS (default 25),
// POPSMR_BENCH_JSON (append one kind:"micro" row per thread count).
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "runtime/env.hpp"
#include "runtime/pool_alloc.hpp"
#include "workload/rows.hpp"

namespace {

using pop::runtime::PoolAllocator;

struct ModeResult {
  double frees_per_sec = 0;
  uint64_t remote_frees = 0;
  uint64_t remote_splices = 0;
};

struct PairResult {
  ModeResult per_node;
  ModeResult batched;
  double speedup = 0;  // median of per-round per_node/batched time ratios
};

// Per-thread CPU time: excludes preemption, so the per-node/batched ratio
// stays meaningful even when the benchmark is oversubscribed (more
// threads than cores, e.g. CI runners).
uint64_t thread_cpu_nanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t median(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Thread t frees, for every owner o != t, the contiguous slice of o's
// blocks at t's rank among o's T-1 freeers — each block freed exactly
// once, never by its owner, in owner-clustered runs with all threads
// visiting owners in the same order.
PairResult run(int threads, uint64_t blocks, uint64_t rounds) {
  const std::size_t block_size = 64;
  const uint64_t total_rounds = rounds + 1;  // round 0 is warmup
  std::vector<std::vector<void*>> owned(threads,
                                        std::vector<void*>(blocks, nullptr));
  std::atomic<int> phase_arrived{0};
  std::atomic<uint64_t> phase{0};
  // Per (round, mode) CPU nanoseconds summed over threads.
  std::vector<std::vector<std::atomic<uint64_t>>> nanos;
  nanos.emplace_back(total_rounds);
  nanos.emplace_back(total_rounds);
  for (auto& v : nanos) {
    for (auto& n : v) n.store(0);
  }
  // Depot counter snapshots (remote_frees / remote_splices: blocks and
  // chunks pushed to the depot), sampled by thread 0 in the quiescent
  // window after each free phase (alloc phases only pop, never count).
  uint64_t remote_frees[2] = {0, 0};
  uint64_t remote_splices[2] = {0, 0};

  auto barrier = [&](uint64_t expect) {
    // Phase barrier keyed on a monotonically increasing id; the last
    // arrival advances the phase.
    if (phase_arrived.fetch_add(1) + 1 == threads) {
      phase_arrived.store(0);
      phase.store(expect + 1, std::memory_order_release);
    } else {
      while (phase.load(std::memory_order_acquire) <= expect) {
        std::this_thread::yield();
      }
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t ph = 0;
      for (uint64_t r = 0; r < total_rounds; ++r) {
        // Alternate which mode goes first: each free phase inherits the
        // block layout the previous phase produced (chained vs scattered),
        // so a fixed order would bias whichever mode runs second.
        for (int k = 0; k < 2; ++k) {
          const int mode = static_cast<int>(r & 1) ^ k;  // 0 = per-node
          // Depot counters are quiescent here (the previous free phase
          // fully landed; alloc phases never touch them).
          uint64_t before_frees = 0, before_splices = 0;
          if (t == 0) {
            const auto s = PoolAllocator::instance().stats();
            before_frees = s.remote_frees;
            before_splices = s.remote_splices;
          }
          for (uint64_t j = 0; j < blocks; ++j) {
            owned[t][j] = PoolAllocator::instance().allocate(block_size);
          }
          barrier(ph++);
          const uint64_t t0 = thread_cpu_nanos();
          if (mode == 1) {
            PoolAllocator::FreeBatch batch;
            for (int o = 0; o < threads; ++o) {
              if (o == t) continue;
              const int rank = t < o ? t : t - 1;
              const uint64_t lo = blocks * rank / (threads - 1);
              const uint64_t hi = blocks * (rank + 1) / (threads - 1);
              void* const* slice = owned[o].data();
              for (uint64_t j = lo; j < hi; ++j) batch.add(slice[j]);
            }
          } else {
            for (int o = 0; o < threads; ++o) {
              if (o == t) continue;
              const int rank = t < o ? t : t - 1;
              const uint64_t lo = blocks * rank / (threads - 1);
              const uint64_t hi = blocks * (rank + 1) / (threads - 1);
              void* const* slice = owned[o].data();
              for (uint64_t j = lo; j < hi; ++j) {
                PoolAllocator::instance().deallocate(slice[j]);
              }
            }
          }
          nanos[mode][r].fetch_add(thread_cpu_nanos() - t0);
          barrier(ph++);  // all frees landed; depot counters quiescent
          if (t == 0 && r > 0) {
            const auto s = PoolAllocator::instance().stats();
            remote_frees[mode] += s.remote_frees - before_frees;
            remote_splices[mode] += s.remote_splices - before_splices;
          }
          barrier(ph++);  // hold the quiescent window for the sampler
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  PairResult res;
  std::vector<uint64_t> per_round[2];
  std::vector<uint64_t> ratio_milli;
  for (uint64_t r = 1; r < total_rounds; ++r) {  // skip warmup
    const uint64_t pn = nanos[0][r].load();
    const uint64_t b = nanos[1][r].load();
    per_round[0].push_back(pn);
    per_round[1].push_back(b);
    ratio_milli.push_back(b == 0 ? 0 : pn * 1000 / b);
  }
  ModeResult* out[2] = {&res.per_node, &res.batched};
  for (int mode = 0; mode < 2; ++mode) {
    const double med_seconds =
        static_cast<double>(median(per_round[mode])) / 1e9 / threads;
    out[mode]->frees_per_sec =
        static_cast<double>(blocks) * threads / med_seconds;
    out[mode]->remote_frees = remote_frees[mode];
    out[mode]->remote_splices = remote_splices[mode];
  }
  res.speedup = static_cast<double>(median(ratio_milli)) / 1000.0;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  pop::bench::apply_bench_cli(argc, argv);
  using namespace pop::runtime;
  const auto thread_list = pop::bench::bench_thread_list("8");
  const uint64_t blocks = env_u64("POPSMR_MICRO_BLOCKS", 4096);
  const uint64_t rounds = std::max<uint64_t>(env_u64("POPSMR_MICRO_ROUNDS", 25), 1);
  pop::obs::JsonlFile out(env_str("POPSMR_BENCH_JSON", ""));

  std::printf("# micro_free_batch: cross-thread free throughput, %llu x %llu"
              " 64B blocks/thread (median of interleaved rounds)\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(blocks));
  std::printf("%7s %9s %12s %13s %14s %8s\n", "threads", "mode", "Mfrees/s",
              "remoteFrees", "remoteSplices", "speedup");

  for (const int t : thread_list) {
    if (t < 2) continue;  // the stripe needs at least one remote peer

    const PairResult pr = run(t, blocks, rounds);
    std::printf("%7d %9s %12.2f %13llu %14llu %8s\n", t, "per-node",
                pr.per_node.frees_per_sec / 1e6,
                static_cast<unsigned long long>(pr.per_node.remote_frees),
                static_cast<unsigned long long>(pr.per_node.remote_splices),
                "");
    std::printf("%7d %9s %12.2f %13llu %14llu %7.2fx\n", t, "batched",
                pr.batched.frees_per_sec / 1e6,
                static_cast<unsigned long long>(pr.batched.remote_frees),
                static_cast<unsigned long long>(pr.batched.remote_splices),
                pr.speedup);
    out.write(pop::workload::micro_row,
              pop::workload::FreeBatchRow{
                  t, pr.per_node.frees_per_sec / 1e6,
                  pr.batched.frees_per_sec / 1e6, pr.speedup,
                  pr.batched.remote_frees, pr.batched.remote_splices});
  }
  return 0;
}
