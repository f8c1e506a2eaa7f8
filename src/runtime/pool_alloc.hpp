// Pool allocator — the repo's stand-in for mimalloc.
//
// The paper (§5.0.1, citing "Are Your Epochs Too Epic?") runs under
// mimalloc because deferred reclamation frees objects in large batches,
// often from a different thread than the allocator, and jemalloc-style
// arenas serialize those cross-thread frees. The pool follows Blelloch &
// Wei, "Concurrent Fixed-Size Allocation and Free in Constant Time":
//   * every thread keeps a private free list per size class; a free
//     always lands on the *freeing* thread's list, so no free path
//     synchronizes, whoever allocated the block;
//   * surplus moves through a shared per-class depot of fixed-size chunks
//     (kPoolChunkBlocks blocks each), one lock-free operation per chunk:
//     a private list past two chunks hands one to the depot, an empty one
//     takes a chunk back before carving, and an exiting thread hands over
//     everything it holds. Memory freed by a reclaimer is thus reusable by
//     every thread, not only by the one that carved it.
//
// Like mimalloc, blocks carry no header: a block is exactly its class
// size. Every block lives in a kPoolSlabBytes-aligned slab of one size
// class whose leading PoolSlab header holds the class and one live/free
// byte per block, so a free finds both by masking the block's address.
// An oversized request is a one-block slab of its own. An optional
// poison mode fills freed payloads with a canary byte and checks the
// live/free byte on free and reuse; the test suite uses it as a
// use-after-free / double-free detector for every SMR scheme.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>

namespace pop::runtime {

namespace detail {
inline constexpr std::size_t kPoolSlabBytes = 256 * 1024;

// The header at the start of every slab. Exposed here so FreeBatch::add
// can inline its fast path; only the allocator's .cpp writes it.
struct PoolSlab {
  void* link;            // next slab while parked for adoption
  uint32_t inv;          // 2^32 / block bytes + 1: block index by multiply
  uint32_t carved;       // blocks handed out, while parked for adoption
  uint16_t size_class;   // kPoolOversized: a one-block slab of its own
  uint16_t first;        // offset of block 0, past the state bytes
  // Then one state byte per block (kPoolBlockLive / kPoolBlockFree).

  uint8_t* states() { return reinterpret_cast<uint8_t*>(this + 1); }
  uint32_t index_of(const void* p) const {
    const uint64_t rel = reinterpret_cast<uintptr_t>(p) -
                         reinterpret_cast<uintptr_t>(this) - first;
    return static_cast<uint32_t>((rel * inv) >> 32);
  }
  uint8_t& state(const void* p) { return states()[index_of(p)]; }
};
static_assert(sizeof(PoolSlab) == 24);

inline PoolSlab* pool_slab_of(const void* p) {
  return reinterpret_cast<PoolSlab*>(reinterpret_cast<uintptr_t>(p) &
                                     ~(kPoolSlabBytes - 1));
}

// Live/free state of a block, written on every alloc and free in every
// mode, so poison mode can be turned on while blocks are out.
inline constexpr uint8_t kPoolBlockLive = 0xA1;
inline constexpr uint8_t kPoolBlockFree = 0xF7;

// Size classes fitted to the nodes: 16-byte steps up to 128 B (where set,
// list and tree nodes live), then four classes per doubling up to
// kPoolMaxBlock, so no request of 128 B or more wastes over 25%.
inline constexpr std::size_t kPoolMaxBlock = 8192;
inline constexpr int kPoolNumClasses = 8 + 4 * 6;  // 16..128, 160..8192
inline constexpr uint16_t kPoolOversized = 0xFFFF;
inline constexpr uint32_t kPoolChunkBlocks = 128;

constexpr int pool_class_of(std::size_t size) {
  if (size <= 128) return size == 0 ? 0 : static_cast<int>((size - 1) / 16);
  const std::size_t s = size - 1;
  const int msb = std::bit_width(s) - 1;  // 7 for 129..256
  return 8 + 4 * (msb - 7) + static_cast<int>((s >> (msb - 2)) - 4);
}

constexpr std::size_t pool_class_bytes(int c) {
  if (c < 8) return 16 * static_cast<std::size_t>(c + 1);
  const std::size_t base = std::size_t{128} << ((c - 8) / 4);
  return base + base / 4 * static_cast<std::size_t>((c - 8) % 4 + 1);
}

// The block a `size`-byte request takes, and the bytes it leaves unused.
constexpr std::size_t pool_block_bytes(std::size_t size) {
  return pool_class_bytes(pool_class_of(size));
}
constexpr std::size_t pool_class_slack(std::size_t size) {
  return pool_block_bytes(size) - size;
}

static_assert(pool_class_bytes(kPoolNumClasses - 1) == kPoolMaxBlock);
static_assert(pool_class_of(kPoolMaxBlock) == kPoolNumClasses - 1);
}  // namespace detail

class PoolAllocator {
 public:
  static PoolAllocator& instance();

  // Allocates `size` bytes (size <= kMaxBlockSize served from pools; a
  // larger request gets a one-block slab of its own). Never returns nullptr.
  void* allocate(std::size_t size);

  // Frees onto the calling thread's lists (any thread, any pool block).
  void deallocate(void* p) noexcept;

  // Batched free path. A FreeBatch reads each block's size class from its
  // slab header (found by masking the address) and threads the blocks
  // into one chain per class through their dead payloads (no allocation,
  // no per-block header); a chain that reaches a full chunk goes to this
  // thread's lists (or the depot) whole, and flush() pushes the partial
  // chains onto them. Poison mode (canary fill, double-free detection)
  // applies per block exactly as on the single deallocate() path.
  // Destructors are NOT run, which is why SMR-managed nodes must be
  // trivially destructible (smr/reclaimable.hpp).
  //
  // Not thread-safe; one thread owns a FreeBatch. Destructor flushes.
  // Poison mode is sampled at construction (set_poison's contract: enable
  // before any thread allocates), saving an atomic load per add().
  class FreeBatch {
   public:
    FreeBatch() noexcept;
    ~FreeBatch() { flush(); }

    // Adds a block previously returned by allocate(). The payload is dead
    // after this call (the chain link is stored inside it). Poison mode,
    // oversized blocks and full chunks leave the inlined fast path.
    void add(void* p) noexcept {
      if (p == nullptr) return;
      detail::PoolSlab* s = detail::pool_slab_of(p);
      const int c = s->size_class;
      if (poison_ || c >= detail::kPoolNumClasses) {
        add_slow(p);
        return;
      }
      // Free-list blocks always read free, so poison mode can be turned
      // on later without tripping over batch-freed blocks.
      s->state(p) = detail::kPoolBlockFree;
      Chain& ch = chains_[c];
      *static_cast<void**>(p) = ch.head;  // link through the dead payload
      ch.head = p;
      ++added_;
      if (++ch.count == detail::kPoolChunkBlocks) hand_off(c);
    }

    // Pushes every pending chain onto this thread's free lists. Called on
    // destruction; idempotent.
    void flush() noexcept;

    uint64_t blocks_added() const noexcept { return added_; }

    FreeBatch(const FreeBatch&) = delete;
    FreeBatch& operator=(const FreeBatch&) = delete;

   private:
    struct Chain {
      void* head = nullptr;  // blocks linked through their payloads
      uint32_t count = 0;
    };

    void add_slow(void* p) noexcept;
    void hand_off(int size_class) noexcept;  // a full chunk leaves

    Chain chains_[detail::kPoolNumClasses];
    bool poison_;
    uint64_t added_ = 0;
  };

  // When enabled, freed payloads are filled with kPoisonByte and each
  // block's live/free byte is verified on free/reuse (aborts on a double
  // free or a pointer that is not a live block). Enable before any thread
  // allocates; used by the safety test suites.
  static void set_poison(bool on) noexcept;
  static bool poison_enabled() noexcept;

  // True if `p` is a freed pool block - i.e. reading it would be a
  // use-after-free (its payload carries the canary in poison mode). Only
  // meaningful for pool-managed blocks of at most kMaxBlockSize bytes.
  static bool is_poisoned(const void* p) noexcept;

  // Global counters (approximate under concurrency; exact at quiescence).
  // remote_frees counts BLOCKS moved through the shared depot (counted as
  // they enter it); remote_splices counts the depot transfers that carried
  // them, one per chunk, so remote_frees / remote_splices is near the
  // chunk size. (The names predate the depot; perf/ reads them.)
  struct Stats {
    uint64_t allocated_blocks;
    uint64_t freed_blocks;
    uint64_t remote_frees;
    uint64_t remote_splices;
    uint64_t slabs;
  };
  Stats stats() const noexcept;

  static constexpr std::size_t kMaxBlockSize = detail::kPoolMaxBlock;
  static constexpr uint8_t kPoisonByte = 0xDD;

  PoolAllocator(const PoolAllocator&) = delete;
  PoolAllocator& operator=(const PoolAllocator&) = delete;

 private:
  PoolAllocator() = default;
};

// Convenience free functions.
inline void* pool_alloc(std::size_t n) {
  return PoolAllocator::instance().allocate(n);
}
inline void pool_free(void* p) noexcept {
  PoolAllocator::instance().deallocate(p);
}

}  // namespace pop::runtime
