// Shared helpers for the popsmr test suites.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "smr/reclaimable.hpp"

namespace pop::test {

// The SMR suites' node: a key behind the era header, which every scheme
// accepts (an era scheme needs it, the others ignore the lifespan).
struct TNode : smr::EraReclaimable {
  explicit TNode(uint64_t k = 0) : key(k) {}
  uint64_t key;
};

// Runs fn(worker_index) on `n` fresh threads and joins them all.
inline void run_threads(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> ts;
  ts.reserve(n);
  for (int i = 0; i < n; ++i) ts.emplace_back(fn, i);
  for (auto& t : ts) t.join();
}

// Start/stop switch for timed concurrent phases.
class Phase {
 public:
  void start() { go_.store(true, std::memory_order_release); }
  void stop() { stop_.store(true, std::memory_order_release); }
  void wait_for_start() const {
    while (!go_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> go_{false};
  std::atomic<bool> stop_{false};
};

}  // namespace pop::test
