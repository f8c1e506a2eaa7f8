// Shared SWMR reservation slot array used by the eagerly-publishing
// pointer/era schemes (HP, HPAsym, HE) and by the POP engine's shared
// side. Values are opaque uintptr_t: node addresses for pointer schemes,
// era numbers for era schemes.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "runtime/thread_registry.hpp"
#include "runtime/tid_rows.hpp"
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

// A reservation scan's buffer, owned by one thread: grown before a
// collect to the (max_tid() + 1) * nslots words that collect may fill,
// so its size follows the tids the registry has handed out, not
// kMaxThreads.
class ScanBuffer {
 public:
  uintptr_t* reserve(std::size_t words) {
    if (words > cap_) {
      buf_ = std::make_unique_for_overwrite<uintptr_t[]>(words);
      cap_ = words;
    }
    return buf_.get();
  }
  std::size_t capacity() const { return cap_; }

 private:
  std::unique_ptr<uintptr_t[]> buf_;
  std::size_t cap_ = 0;
};

// One row of kMaxSlots slots per tid, allocated on the tid's first write
// (runtime::TidRows). A scan reads a tid with no row as all-zero slots.
class SlotTable {
 public:
  std::atomic<uintptr_t>& at(int tid, int slot) {
    return rows_.get(tid).s[slot];
  }

  // tid's slots, or nullptr if it has none yet; never allocates (the POP
  // ping handler publishes through it).
  std::atomic<uintptr_t>* find(int tid) {
    Row* row = rows_.find(tid);
    return row == nullptr ? nullptr : row->s;
  }

  void copy(int tid, int dst, int src) {
    at(tid, dst).store(at(tid, src).load(std::memory_order_relaxed),
                       std::memory_order_release);
  }

  void clear_row(int tid, int nslots) {
    Row& row = rows_.get(tid);
    for (int s = 0; s < nslots; ++s) {
      row.s[s].store(0, std::memory_order_release);
    }
  }

  // Gathers every non-zero value, sorted, into `buf`, grown first to fit
  // every tid up to the registry's high-water mark.
  Reservations collect(int nslots, ScanBuffer& buf) const {
    const int hi = runtime::ThreadRegistry::instance().max_tid();
    uintptr_t* out = buf.reserve(static_cast<std::size_t>(hi + 1) *
                                 static_cast<std::size_t>(nslots));
    int n = 0;
    for (int t = 0; t <= hi; ++t) {
      const Row* row = rows_.find(t);
      if (row == nullptr) continue;
      for (int s = 0; s < nslots; ++s) {
        const uintptr_t v = row->s[s].load(std::memory_order_acquire);
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

  runtime::TidRows<Row> rows_;
};

}  // namespace pop::smr
