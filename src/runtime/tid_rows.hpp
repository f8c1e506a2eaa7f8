// TidRows<T>: per-thread state of one object (a reclamation domain, a
// POP engine, a map), allocated when a thread first touches it. The
// object holds only a table of kMaxThreads row pointers (8 B each), so it
// pays for the threads that use it, not for every tid the registry could
// hand out.
//
//   get(tid)   owner side. Returns tid's row, allocating it on the first
//              touch: value-initialized, 128-B aligned, padded to whole
//              cache lines. The row lives until the object dies, so a
//              recycled tid gets the row its previous owner left.
//   find(tid)  scanner side. nullptr means tid never touched the object,
//              which every caller reads exactly as it reads a row still
//              in its initial state ("never attached", "quiescent", no
//              reservation). Never allocates: safe in a signal handler.
//
// Why a scanner that reads null cannot miss anything. The row pointer is
// published with a seq_cst RMW that the owner executes before it writes
// anything to the row, and find() is a seq_cst load. Take any write W the
// owner makes to its row and a scanner load L of the same field that an
// eager (always-present) row would have had. Every rule that forces L to
// see W — W happens before L, W precedes L in the seq_cst order S, or a
// seq_cst fence sequenced after W precedes one sequenced before L — also
// holds for the publication P, which is sequenced before W, and for the
// scanner's find() F, which is where L would have been. So whenever the
// eager scanner was forced to see W, F is forced to see P and returns the
// row; an F that reads null is a point where the eager scanner could have
// read the initial value. Each scheme's own argument for a field's
// initial value therefore covers the null row unchanged: a hazard
// pointer's fence pairing (HP's seq_cst slot store), the POP handshake (an
// unattached tid is not waited for; an engine row exists before its
// attach flag is set), and min_announced (an unannounced tid is
// quiescent).
#pragma once

#include <atomic>
#include <cstddef>
#include <new>

#include "runtime/cacheline.hpp"
#include "runtime/thread_registry.hpp"

namespace pop::runtime {

template <class T>
class TidRows {
 public:
  // Each row holds `width` Ts (ShardedMap keeps one counter cell per
  // shard); every other user has one T per row.
  explicit TidRows(std::size_t width = 1) : width_(width) {}

  ~TidRows() {
    for (auto& r : rows_) {
      if (T* row = r.load(std::memory_order_relaxed)) destroy(row);
    }
  }

  TidRows(const TidRows&) = delete;
  TidRows& operator=(const TidRows&) = delete;

  // Acquire: a recycled tid's new owner reads the row its predecessor
  // allocated and filled.
  T& get(int tid) {
    T* row = rows_[tid].load(std::memory_order_acquire);
    if (row == nullptr) [[unlikely]] row = allocate(tid);
    return *row;
  }

  T* find(int tid) const {
    // seq_cst: the null answer is sound only against the seq_cst
    // publication (header).
    return rows_[tid].load(std::memory_order_seq_cst);
  }

  // Calls f(tid, row) for every row that exists, up to the registry's
  // high-water tid (no tid above it can have touched the object).
  template <class F>
  void for_each(F&& f) const {
    const int hi = ThreadRegistry::instance().max_tid();
    for (int t = 0; t <= hi; ++t) {
      if (T* row = find(t)) f(t, *row);
    }
  }

  // Rows allocated so far: the threads this object pays for.
  int count() const {
    int n = 0;
    for_each([&n](int, T&) { ++n; });
    return n;
  }

 private:
  std::size_t row_bytes() const {
    return (sizeof(T) * width_ + kCacheLine - 1) / kCacheLine * kCacheLine;
  }

  // Cold path of get(). Only tid's owner normally gets here; a reaper
  // that touches a corpse's row finds it allocated, and if two threads
  // ever raced, the loser frees its copy and returns the winner's.
  [[gnu::noinline]] T* allocate(int tid) {
    void* mem = ::operator new(row_bytes(), std::align_val_t{kCacheLine});
    T* row = static_cast<T*>(mem);
    for (std::size_t i = 0; i < width_; ++i) ::new (row + i) T();
    T* expected = nullptr;
    // seq_cst: the publication every null read is ordered against (header).
    if (rows_[tid].compare_exchange_strong(expected, row,
                                           std::memory_order_seq_cst)) {
      return row;
    }
    destroy(row);
    return expected;
  }

  void destroy(T* row) {
    for (std::size_t i = 0; i < width_; ++i) row[i].~T();
    ::operator delete(row, std::align_val_t{kCacheLine});
  }

  std::size_t width_;
  std::atomic<T*> rows_[kMaxThreads] = {};
};

}  // namespace pop::runtime
