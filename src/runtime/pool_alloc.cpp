#include "runtime/pool_alloc.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include <sys/mman.h>

#include "runtime/padded.hpp"

// Slabs are mapped straight from the OS, so LeakSanitizer neither reports
// them nor, unless told, scans them for pointers into the heap.
#if defined(__SANITIZE_ADDRESS__)
#define POPSMR_LSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define POPSMR_LSAN 1
#endif
#endif
#ifdef POPSMR_LSAN
#include <sanitizer/lsan_interface.h>
#endif

namespace pop::runtime {

namespace {

using namespace detail;
constexpr uint32_t kChunk = kPoolChunkBlocks;

struct FreeNode { FreeNode* next; };

// Each class's slab geometry: the most blocks that fit beside a header of
// PoolSlab plus one state byte per block. The header takes whatever is
// left, so the blocks end exactly at the slab's end.
struct SlabGeometry {
  uint32_t bytes, blocks, inv;
  uint16_t first;
};

constexpr SlabGeometry slab_geometry(int c) {
  const std::size_t b = pool_class_bytes(c);
  const auto header = [](std::size_t n) {
    return (sizeof(PoolSlab) + n + 15) / 16 * 16;
  };
  std::size_t n = (kPoolSlabBytes - sizeof(PoolSlab)) / (b + 1);
  while (header(n) + n * b > kPoolSlabBytes) --n;
  return {static_cast<uint32_t>(b), static_cast<uint32_t>(n),
          static_cast<uint32_t>((uint64_t{1} << 32) / b + 1),
          static_cast<uint16_t>(kPoolSlabBytes - n * b)};
}

constexpr auto kGeometry = [] {
  std::array<SlabGeometry, kPoolNumClasses> g{};
  for (int c = 0; c < kPoolNumClasses; ++c) g[c] = slab_geometry(c);
  return g;
}();

// An oversized block's one-block slab: the header and its one state byte.
constexpr uint16_t kOversizedFirst = (sizeof(PoolSlab) + 1 + 15) / 16 * 16;

std::atomic<uint64_t> g_allocated{0};
std::atomic<uint64_t> g_freed{0};
std::atomic<uint64_t> g_remote{0};          // blocks pushed into the depot
std::atomic<uint64_t> g_remote_splices{0};  // chunk pushes that carried them
std::atomic<uint64_t> g_slabs{0};
std::atomic<bool> g_poison{false};

[[noreturn]] void die(const char* what, const void* p) {
  std::fprintf(stderr, "popsmr pool_alloc: %s (block %p)\n", what, p);
  std::abort();
}

// A Treiber stack of nodes linked through their first word. The head packs
// a 16-bit version into the pointer's unused top bits (user addresses fit
// in 48), so a pop that read a stale head fails its CAS. Nodes are never
// unmapped, so that stale pop's read of the link is safe; it is a relaxed
// atomic access because the node's new owner may push it concurrently.
class TaggedStack {
 public:
  bool empty() const {
    return addr(head_.load(std::memory_order_relaxed)) == nullptr;
  }

  void push(void* node) noexcept {
    uint64_t old = head_.load(std::memory_order_relaxed);
    do {
      link(node).store(addr(old), std::memory_order_relaxed);
    } while (!head_.compare_exchange_weak(old, pack(node, old),
                                          std::memory_order_release));
  }

  void* pop() noexcept {
    uint64_t old = head_.load(std::memory_order_acquire);
    while (void* node = addr(old)) {
      void* next = link(node).load(std::memory_order_relaxed);
      if (head_.compare_exchange_weak(old, pack(next, old),
                                      std::memory_order_acquire)) {
        return node;
      }
    }
    return nullptr;
  }

 private:
  static constexpr uint64_t kAddrMask = (uint64_t{1} << 48) - 1;

  static std::atomic_ref<void*> link(void* n) {
    return std::atomic_ref<void*>(*static_cast<void**>(n));
  }
  static void* addr(uint64_t v) {
    return reinterpret_cast<void*>(v & kAddrMask);
  }
  static uint64_t pack(void* p, uint64_t old) {  // next version, new address
    return reinterpret_cast<uint64_t>(p) | ((old | kAddrMask) + 1);
  }

  std::atomic<uint64_t> head_{0};
};

constexpr std::size_t kPageBytes = 4096;

// `bytes` of fresh zero pages at a multiple of `align`, straight from the
// OS: no allocator header next to them, so pages nobody writes cost no
// RSS. Never returned: slabs and chunk records are kept for the whole
// process on purpose (SMR benchmarks measure the reclamation of *nodes*,
// and mimalloc likewise retains pages for reuse during a run).
void* map_pages(std::size_t bytes, std::size_t align) {
  // Over-map by `align`, then unmap what lies outside the aligned run.
  const std::size_t span = bytes + (align > kPageBytes ? align : 0);
  void* m = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (m == MAP_FAILED) throw std::bad_alloc();
  char* base = static_cast<char*>(m);
  char* start = reinterpret_cast<char*>(
      (reinterpret_cast<uintptr_t>(base) + align - 1) & ~(align - 1));
  if (start > base) ::munmap(base, start - base);
  if (base + span > start + bytes) {
    ::munmap(start + bytes, base + span - (start + bytes));
  }
#ifdef POPSMR_LSAN
  __lsan_register_root_region(start, bytes);
#endif
  return start;
}

PoolSlab* new_slab(int c) {
  const SlabGeometry& g = kGeometry[c];
  void* mem = map_pages(kPoolSlabBytes, kPoolSlabBytes);
  g_slabs.fetch_add(1, std::memory_order_relaxed);
  return new (mem) PoolSlab{nullptr, g.inv, 0, static_cast<uint16_t>(c),
                            g.first};
}

// Per class, the partly carved slabs of exited threads, adopted before a
// new slab is carved. They link through PoolSlab::link, a header word the
// allocator never hands out.
Padded<TaggedStack> g_partial[kPoolNumClasses];

// The depot: per class, a stack of chunks. A chunk's chain of blocks links
// through their dead payloads; the chunk itself is a record that carries
// the stack link and the chain. Records are type-stable (taken from and
// returned to g_free_chunks, never handed out), so a stale pop reads only
// allocator-owned words, never a block's next owner's payload.
struct Chunk {
  void* link;
  FreeNode* head;
  uint32_t len;  // kChunk except for an exiting thread's partial lists
};
Padded<TaggedStack> g_depot[kPoolNumClasses];
TaggedStack g_free_chunks;

Chunk* new_chunk() {
  if (auto* r = static_cast<Chunk*>(g_free_chunks.pop())) return r;
  auto* batch = static_cast<Chunk*>(map_pages(kPageBytes, kPageBytes));
  for (std::size_t i = 1; i < kPageBytes / sizeof(Chunk); ++i) {
    g_free_chunks.push(&batch[i]);
  }
  return &batch[0];
}

void depot_push(int c, FreeNode* chain, uint32_t len) {
  Chunk* r = new_chunk();
  r->head = chain;
  r->len = len;
  g_remote.fetch_add(len, std::memory_order_relaxed);
  g_remote_splices.fetch_add(1, std::memory_order_relaxed);
  g_depot[c]->push(r);
}

struct ClassCache {
  FreeNode* cur = nullptr;    // private list, fewer than kChunk blocks
  FreeNode* spare = nullptr;  // null or exactly kChunk blocks
  uint32_t n = 0;             // blocks on `cur`
  uint32_t carved = 0;        // blocks carved from `slab`
  PoolSlab* slab = nullptr;   // the slab this thread carves the class from
};

// One per thread. Its destructor hands everything to the depot; a free
// that still arrives later (another thread_local's destructor) goes
// straight there too.
struct ThreadCache {
  ClassCache cls[kPoolNumClasses];
  bool exited = false;

  ThreadCache() = default;
  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;
  ~ThreadCache() { release(); exited = true; }

  void* alloc(int c) {
    ClassCache& k = cls[c];
    FreeNode* n = k.cur;
    if (n == nullptr) return alloc_slow(c);
    k.cur = n->next;
    --k.n;
    uint8_t& state = pool_slab_of(n)->state(n);
    if (g_poison.load(std::memory_order_relaxed) && state != kPoolBlockFree) {
      die("reusing non-free block", n);
    }
    state = kPoolBlockLive;
    g_allocated.fetch_add(1, std::memory_order_relaxed);
    return n;
  }

  // An empty private list refills from the spare, then from the depot
  // (one relaxed load when it is empty), and only then carves.
  void* alloc_slow(int c) {
    ClassCache& k = cls[c];
    if (k.spare != nullptr) {
      k.cur = std::exchange(k.spare, nullptr);
      k.n = kChunk;
    } else if (!g_depot[c]->empty()) {
      if (auto* r = static_cast<Chunk*>(g_depot[c]->pop())) {
        k.cur = r->head;
        k.n = r->len;
        g_free_chunks.push(r);
      }
    }
    void* p = k.cur != nullptr ? alloc(c) : carve(c);
    if (exited) release();
    return p;
  }

  // A full `cur` becomes the spare, and the old spare goes to the depot:
  // O(1), no list is walked.
  void push(int c, FreeNode* node) {
    ClassCache& k = cls[c];
    node->next = k.cur;
    k.cur = node;
    if (++k.n < kChunk && !exited) return;
    if (exited) return release();
    if (k.spare != nullptr) depot_push(c, k.spare, kChunk);
    k.spare = std::exchange(k.cur, nullptr);
    k.n = 0;
  }

  void push_chunk(int c, FreeNode* chain) {  // exactly kChunk blocks
    if (cls[c].spare != nullptr || exited) return depot_push(c, chain, kChunk);
    cls[c].spare = chain;
  }

  // The next block of this thread's slab of the class; a full slab is
  // replaced by an exited thread's partly carved one, or a new one.
  void* carve(int c) {
    ClassCache& k = cls[c];
    const SlabGeometry& g = kGeometry[c];
    if (k.slab == nullptr || k.carved == g.blocks) {
      k.slab = static_cast<PoolSlab*>(g_partial[c]->pop());
      if (k.slab == nullptr) k.slab = new_slab(c);
      k.carved = k.slab->carved;
    }
    const uint32_t i = k.carved++;
    k.slab->states()[i] = kPoolBlockLive;
    g_allocated.fetch_add(1, std::memory_order_relaxed);
    return reinterpret_cast<char*>(k.slab) + g.first + std::size_t{i} * g.bytes;
  }

  // Everything this thread holds goes to the depot, and a slab with blocks
  // left to carve is parked for adoption. Idempotent.
  void release() {
    for (int c = 0; c < kPoolNumClasses; ++c) {
      ClassCache& k = cls[c];
      if (k.spare != nullptr) depot_push(c, k.spare, kChunk);
      if (k.cur != nullptr) depot_push(c, k.cur, k.n);
      if (k.slab != nullptr && k.carved < kGeometry[c].blocks) {
        k.slab->carved = k.carved;
        g_partial[c]->push(k.slab);
      }
      k = ClassCache{};
    }
  }
};

thread_local ThreadCache t_cache;

// The per-block part of every free: poison check and canary fill, free
// state, and oversized slabs straight back to ::operator delete. Returns
// the size class, or -1 for an oversized block (already counted freed).
int mark_free(void* p, bool poison) {
  PoolSlab* s = pool_slab_of(p);
  const uint32_t i = s->index_of(p);
  uint8_t& state = s->states()[i];
  if (poison && state != kPoolBlockLive) {
    die(state == kPoolBlockFree ? "double free" : "freeing corrupt block", p);
  }
  state = kPoolBlockFree;
  if (s->size_class == kPoolOversized) {
    g_freed.fetch_add(1, std::memory_order_relaxed);
    ::operator delete(static_cast<void*>(s), std::align_val_t{kPoolSlabBytes});
    return -1;
  }
  const int c = s->size_class;
  const std::size_t bytes = kGeometry[c].bytes;
  if (poison) {
    if (p != reinterpret_cast<char*>(s) + s->first + i * bytes) {
      die("freeing a pointer into a block", p);
    }
    std::memset(p, PoolAllocator::kPoisonByte, bytes);
  }
  return c;
}

}  // namespace

PoolAllocator& PoolAllocator::instance() {
  static PoolAllocator a;
  return a;
}

void* PoolAllocator::allocate(std::size_t size) {
  if (size <= kMaxBlockSize) return t_cache.alloc(pool_class_of(size));
  // Oversized: a one-block slab, so a free finds it by the same mask. It
  // comes from ::operator new, so LeakSanitizer reports one that leaks.
  void* mem = ::operator new(kOversizedFirst + size,
                             std::align_val_t{kPoolSlabBytes});
  auto* s = new (mem) PoolSlab{nullptr, 0, 0, kPoolOversized, kOversizedFirst};
  s->states()[0] = kPoolBlockLive;
  g_allocated.fetch_add(1, std::memory_order_relaxed);
  return static_cast<char*>(mem) + kOversizedFirst;
}

void PoolAllocator::deallocate(void* p) noexcept {
  if (p == nullptr) return;
  const int c = mark_free(p, g_poison.load(std::memory_order_relaxed));
  if (c < 0) return;
  g_freed.fetch_add(1, std::memory_order_relaxed);
  t_cache.push(c, static_cast<FreeNode*>(p));
}

// ---- batched free ---------------------------------------------------------

PoolAllocator::FreeBatch::FreeBatch() noexcept
    : poison_(g_poison.load(std::memory_order_relaxed)) {}

void PoolAllocator::FreeBatch::add_slow(void* p) noexcept {
  ++added_;
  const int c = mark_free(p, poison_);
  if (c < 0) return;
  Chain& ch = chains_[c];
  *static_cast<void**>(p) = ch.head;
  ch.head = p;
  if (++ch.count == kChunk) hand_off(c);
}

void PoolAllocator::FreeBatch::hand_off(int c) noexcept {
  g_freed.fetch_add(kChunk, std::memory_order_relaxed);
  t_cache.push_chunk(c, static_cast<FreeNode*>(chains_[c].head));
  chains_[c] = Chain{};
}

void PoolAllocator::FreeBatch::flush() noexcept {
  for (int c = 0; c < kPoolNumClasses; ++c) {
    Chain& ch = chains_[c];
    if (ch.head == nullptr) continue;
    g_freed.fetch_add(ch.count, std::memory_order_relaxed);
    // Under a chunk: push block by block so the lists keep their bounds.
    for (auto* n = static_cast<FreeNode*>(ch.head); n != nullptr;) {
      FreeNode* next = n->next;
      t_cache.push(c, n);
      n = next;
    }
    ch = Chain{};
  }
}

void PoolAllocator::set_poison(bool on) noexcept {
  g_poison.store(on, std::memory_order_seq_cst);
}

bool PoolAllocator::poison_enabled() noexcept {
  return g_poison.load(std::memory_order_relaxed);
}

bool PoolAllocator::is_poisoned(const void* p) noexcept {
  return p != nullptr && pool_slab_of(p)->state(p) == kPoolBlockFree;
}

PoolAllocator::Stats PoolAllocator::stats() const noexcept {
  return {g_allocated.load(std::memory_order_relaxed),
          g_freed.load(std::memory_order_relaxed),
          g_remote.load(std::memory_order_relaxed),
          g_remote_splices.load(std::memory_order_relaxed),
          g_slabs.load(std::memory_order_relaxed)};
}

}  // namespace pop::runtime
