// Asymmetric memory barrier: a near-free reader-side "light" fence paired
// with an expensive reclaimer-side "heavy" fence that forces every thread's
// prior stores visible and its prior loads complete.
//
// This is the substrate for HPAsym (the Folly-style hazard pointer
// baseline the paper compares against, §2.1/§5). Readers publish a hazard
// pointer with a plain store + compiler barrier; reclaimers run
// heavy_fence() before scanning so that either the reader's store is
// visible or the reader's validation load will observe the unlink.
//
// Backend selection, probed once at startup:
//  1. membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)   - Linux >= 4.14
//  2. signal broadcast via the thread registry        - container fallback
// The fallback mirrors what liburcu did before sys_membarrier existed: it
// is the publish-on-ping handshake (runtime/handshake.hpp) with a bare
// fence in place of the reservation copy.
#pragma once

#include <atomic>

namespace pop::runtime {

enum class AsymBackend { kMembarrier, kSignalBroadcast };

class AsymFence {
 public:
  static AsymFence& instance();

  // Reader side: compiler-only barrier. On TSO the paired heavy fence
  // supplies the StoreLoad ordering.
  static void light_fence() noexcept {
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }

  // Reclaimer side: process-wide barrier over all registered threads.
  // False when the fallback's wave timed out: trust no scan after it.
  [[nodiscard]] bool heavy_fence();

  AsymBackend backend() const noexcept { return backend_; }

  AsymFence(const AsymFence&) = delete;
  AsymFence& operator=(const AsymFence&) = delete;

 private:
  AsymFence();
  AsymBackend backend_;
};

namespace detail {
// Enrolls the calling thread in the signal-broadcast fence, so the
// fallback's ping reaches it; HPAsym calls this at thread attach.
void attach_barrier_client_for_current_thread();

// The signal-broadcast fallback, whatever the probed backend (tests).
[[nodiscard]] bool signal_broadcast_fence();
}  // namespace detail

}  // namespace pop::runtime
