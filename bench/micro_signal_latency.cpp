// §4.1.2: the cost of a publish-on-ping round. Measures the latency of
// ping_all_and_wait() — collect counters, pthread_kill every thread, wait
// for all publishes — against the number of (busy) peer threads,
// including oversubscription beyond the core count. This is the cost a
// POP reclaimer pays once per reclamation pass, amortized over
// retire_threshold retirements.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "core/pop_engine.hpp"
#include "runtime/env.hpp"
#include "runtime/thread_registry.hpp"

int main(int argc, char** argv) {
  using namespace pop;
  bench::apply_bench_cli(argc, argv);
  const uint64_t rounds = runtime::env_u64("POPSMR_BENCH_ROUNDS", 200);
  std::printf("# ping_all_and_wait latency vs peer threads (%llu rounds)\n",
              static_cast<unsigned long long>(rounds));
  std::printf("%8s %14s %14s\n", "peers", "mean_us", "max_us");

  for (int peers : {0, 1, 2, 4, 8, 16}) {
    core::PopEngine engine(4);
    std::atomic<bool> stop{false};
    std::atomic<int> up{0};
    std::vector<std::thread> ts;
    for (int i = 0; i < peers; ++i) {
      ts.emplace_back([&] {
        const int tid = runtime::my_tid();
        engine.attach(tid);
        up.fetch_add(1);
        // Busy loop with changing local reservations, like a traversal.
        uintptr_t v = 0x1000;
        while (!stop.load(std::memory_order_relaxed)) {
          engine.local_slot(tid, 0).store(v, std::memory_order_relaxed);
          v += 16;
        }
        engine.detach(tid);
      });
    }
    while (up.load() < peers) std::this_thread::yield();

    const int self = runtime::my_tid();
    engine.attach(self);
    double total_us = 0, max_us = 0;
    for (uint64_t r = 0; r < rounds; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      engine.ping_all_and_wait(self);
      const auto t1 = std::chrono::steady_clock::now();
      const double us =
          std::chrono::duration<double, std::micro>(t1 - t0).count();
      total_us += us;
      if (us > max_us) max_us = us;
    }
    engine.detach(self);
    stop.store(true);
    for (auto& t : ts) t.join();
    std::printf("%8d %14.2f %14.2f\n", peers, total_us / rounds, max_us);
    std::fflush(stdout);
  }
  return 0;
}
