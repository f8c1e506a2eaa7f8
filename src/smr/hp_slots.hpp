// Shared SWMR reservation slot array used by the eagerly-publishing
// pointer/era schemes (HP, HPAsym, HE) and by the POP engine's shared
// side. Values are opaque uintptr_t: node addresses for pointer schemes,
// era numbers for era schemes.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "runtime/padded.hpp"
#include "runtime/thread_registry.hpp"
#include "smr/reclaimable.hpp"

namespace pop::smr {

inline constexpr int kMaxSlots = 8;

// A sorted snapshot of collected reservation values.
struct Reservations {
  const uintptr_t* v;
  int n;

  // Pointer schemes: the node's address is reserved.
  bool names(const Reclaimable* node) const {
    return std::binary_search(v, v + n, reinterpret_cast<uintptr_t>(node));
  }
  // Era schemes: a reserved era falls in the node's lifespan
  // [birth_era, retire_era], which pins it.
  bool intersects(const EraReclaimable* node) const {
    const uintptr_t* e = std::lower_bound(v, v + n, node->birth_era);
    return e != v + n && *e <= node->retire_era;
  }
};

class SlotTable {
 public:
  std::atomic<uintptr_t>& at(int tid, int slot) {
    return rows_[tid]->s[slot];
  }
  const std::atomic<uintptr_t>& at(int tid, int slot) const {
    return rows_[tid]->s[slot];
  }

  void copy(int tid, int dst, int src) {
    at(tid, dst).store(at(tid, src).load(std::memory_order_relaxed),
                       std::memory_order_release);
  }

  void clear_row(int tid, int nslots) {
    for (int s = 0; s < nslots; ++s) {
      rows_[tid]->s[s].store(0, std::memory_order_release);
    }
  }

  // Gathers every non-zero value into `out` (caller-provided buffer of at
  // least kMaxThreads*nslots entries), sorted.
  Reservations collect(int nslots, uintptr_t* out) const {
    int n = 0;
    const int hi = runtime::ThreadRegistry::instance().max_tid();
    for (int t = 0; t <= hi; ++t) {
      for (int s = 0; s < nslots; ++s) {
        const uintptr_t v = rows_[t]->s[s].load(std::memory_order_acquire);
        if (v != 0) out[n++] = v;
      }
    }
    std::sort(out, out + n);
    return {out, n};
  }

 private:
  struct Row {
    std::atomic<uintptr_t> s[kMaxSlots] = {};
  };
  runtime::Padded<Row> rows_[runtime::kMaxThreads];
};

}  // namespace pop::smr
