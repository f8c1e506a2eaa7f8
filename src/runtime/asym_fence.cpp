#include "runtime/asym_fence.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>

#include "runtime/handshake.hpp"
#include "runtime/signal_bus.hpp"
#include "runtime/thread_registry.hpp"

#ifndef MEMBARRIER_CMD_QUERY
#define MEMBARRIER_CMD_QUERY 0
#endif
#ifndef MEMBARRIER_CMD_PRIVATE_EXPEDITED
#define MEMBARRIER_CMD_PRIVATE_EXPEDITED (1 << 3)
#endif
#ifndef MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED
#define MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED (1 << 4)
#endif

namespace pop::runtime {

namespace {

long membarrier(int cmd) {
#ifdef __NR_membarrier
  return syscall(__NR_membarrier, cmd, 0, 0);
#else
  (void)cmd;
  errno = ENOSYS;
  return -1;
#endif
}

bool probe_membarrier() {
  const long cmds = membarrier(MEMBARRIER_CMD_QUERY);
  if (cmds < 0) return false;
  if ((cmds & MEMBARRIER_CMD_PRIVATE_EXPEDITED) == 0) return false;
  if (membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) != 0) return false;
  return true;
}

// Signal-broadcast fallback: the counter handshake over the threads whose
// current registration enrolled (HPAsym attach), the only ones that can
// hold the reservations a heavy fence must make visible; each handler
// issues a full fence and bumps an ack counter.
class BarrierClient final : public SignalClient {
 public:
  void on_ping(int tid) noexcept override {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    rows_[tid]->ack.fetch_add(1, std::memory_order_release);
  }

  void enroll(int tid) {
    Row& r = *rows_[tid];
    r.epoch.store(ThreadRegistry::instance().slot_epoch(tid),
                  std::memory_order_relaxed);
    r.enrolled.store(true, std::memory_order_release);
  }

  // True while tid's current owner is enrolled.
  bool member(int tid) const {
    const Row& r = *rows_[tid];
    return r.enrolled.load(std::memory_order_acquire) &&
           r.epoch.load(std::memory_order_relaxed) ==
               ThreadRegistry::instance().slot_epoch(tid);
  }

  // The handshake's snapshot: every member but the caller.
  template <class Take>
  void snapshot(int self, Take& take) const {
    const int hi = ThreadRegistry::instance().max_tid();
    for (int t = 0; t <= hi; ++t) {
      if (t == self || !member(t)) continue;
      const Row& r = *rows_[t];
      take(t, r.ack, r.enrolled, r.epoch);
    }
  }

 private:
  struct Row {
    std::atomic<uint64_t> ack{0};
    std::atomic<uint64_t> epoch{0};  // registry epoch of the enrollment
    std::atomic<bool> enrolled{false};
  };
  Padded<Row> rows_[kMaxThreads];
};

BarrierClient& barrier_client() {
  static BarrierClient c;
  return c;
}

}  // namespace

AsymFence& AsymFence::instance() {
  static AsymFence f;
  return f;
}

AsymFence::AsymFence()
    : backend_(probe_membarrier() ? AsymBackend::kMembarrier
                                  : AsymBackend::kSignalBroadcast) {}

bool AsymFence::heavy_fence() {
  if (backend_ == AsymBackend::kMembarrier) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED) == 0;
  }
  return detail::signal_broadcast_fence();
}

namespace detail {

void attach_barrier_client_for_current_thread() {
  SignalBus::instance().attach(&barrier_client());
  barrier_client().enroll(ThreadRegistry::instance().my_tid());
}

bool signal_broadcast_fence() {
  auto& client = barrier_client();
  const int self = ThreadRegistry::instance().my_tid();
  // seq_cst fence: the caller's stores (a scan's unlinks) precede the ack
  // snapshot (handshake.hpp).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  return ping_and_wait([&](auto&& take) { client.snapshot(self, take); },
                       [&](int t) { return client.member(t); })
      .complete();
}

}  // namespace detail

}  // namespace pop::runtime
