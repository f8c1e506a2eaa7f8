#include "runtime/pool_alloc.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "runtime/padded.hpp"

// Slabs are retained for the whole process on purpose (see carve()
// below), and blocks parked in the depot are reachable only through
// version-tagged pointers that LeakSanitizer cannot follow; teach it that
// these are not leaks so ASan CI runs stay meaningful for everything else.
#if !defined(POPSMR_ASAN) && defined(__SANITIZE_ADDRESS__)
#define POPSMR_ASAN 1
#endif
#if !defined(POPSMR_ASAN) && defined(__has_feature)
#if __has_feature(address_sanitizer)
#define POPSMR_ASAN 1
#endif
#endif
#ifdef POPSMR_ASAN
extern "C" const char* __lsan_default_suppressions() {
  // Match only the slab retention site by function name. A broader
  // pattern like "leak:pool_alloc" would also match the *module* name of
  // the runtime_test_pool_alloc test binary and silence every leak in it,
  // and a source-file match would hide leaked oversized blocks from
  // PoolAllocator::allocate.
  return "leak:carve\n";
}
#endif

namespace pop::runtime {

namespace {

using namespace detail;
using BlockHeader = PoolBlockHeader;
constexpr uint32_t kChunk = kPoolChunkBlocks;
constexpr std::size_t kSlabBytes = 256 * 1024;

struct FreeNode { FreeNode* next; };

BlockHeader* header_of(void* p) {
  return reinterpret_cast<BlockHeader*>(static_cast<char*>(p) -
                                        sizeof(BlockHeader));
}

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

// The depot: per class, a stack of chunks, each a null-terminated chain of
// blocks headed by a block whose header carries the stack link and the
// chain length (kChunk except for an exiting thread's partial lists).
Padded<TaggedStack> g_depot[kPoolNumClasses];

void depot_push(int c, FreeNode* chain, uint32_t len) {
  BlockHeader* h = header_of(chain);
  h->chunk_len = static_cast<uint16_t>(len);
  g_remote.fetch_add(len, std::memory_order_relaxed);
  g_remote_splices.fetch_add(1, std::memory_order_relaxed);
  g_depot[c]->push(h);
}

// Unused tails of the bump regions of exited threads, reused before a
// new slab is carved. The record sits at the start of the tail itself.
struct Remnant { void* link; char* end; };
TaggedStack g_remnants;

struct ClassCache {
  FreeNode* cur = nullptr;    // private list, fewer than kChunk blocks
  FreeNode* spare = nullptr;  // null or exactly kChunk blocks
  uint32_t n = 0;             // blocks on `cur`
};

// One per thread. Its destructor hands everything to the depot; a free
// that still arrives later (another thread_local's destructor) goes
// straight there too.
struct ThreadCache {
  ClassCache cls[kPoolNumClasses];
  char* bump_cur = nullptr;  // current bump region, shared by all classes
  char* bump_end = nullptr;
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
    BlockHeader* h = header_of(n);
    if (g_poison.load(std::memory_order_relaxed) &&
        h->magic != kPoolMagicFree) {
      die("reusing non-free block", n);
    }
    h->magic = kPoolMagicLive;
    g_allocated.fetch_add(1, std::memory_order_relaxed);
    return n;
  }

  // An empty private list refills from the spare, then from the depot
  // (one relaxed load when it is empty), and only then carves.
  void* alloc_slow(int c) {
    ClassCache& k = cls[c];
    if (k.spare != nullptr) {
      k = {k.spare, nullptr, kChunk};
    } else if (!g_depot[c]->empty()) {
      if (auto* h = static_cast<BlockHeader*>(g_depot[c]->pop())) {
        k = {reinterpret_cast<FreeNode*>(h + 1), nullptr, h->chunk_len};
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
    k = {nullptr, k.cur, 0};
  }

  void push_chunk(int c, FreeNode* chain) {  // exactly kChunk blocks
    if (cls[c].spare != nullptr || exited) return depot_push(c, chain, kChunk);
    cls[c].spare = chain;
  }

  void* carve(int c) {
    const std::size_t block = sizeof(BlockHeader) + pool_class_bytes(c);
    if (static_cast<std::size_t>(bump_end - bump_cur) < block) {
      if (auto* r = static_cast<Remnant*>(g_remnants.pop())) {
        bump_cur = reinterpret_cast<char*>(r);
        bump_end = r->end;
      } else {
        // Slabs are intentionally never returned to the OS: SMR
        // benchmarks measure reclamation of *nodes*, and mimalloc likewise
        // retains pages for reuse during a run.
        bump_cur = static_cast<char*>(::operator new(kSlabBytes));
        bump_end = bump_cur + kSlabBytes;
        g_slabs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // The header's link word is left alone: a stale depot or remnant pop
    // may still read it (atomically) at this address.
    auto* h = reinterpret_cast<BlockHeader*>(bump_cur);
    bump_cur += block;
    h->size_class = static_cast<uint16_t>(c);
    h->magic = kPoolMagicLive;
    g_allocated.fetch_add(1, std::memory_order_relaxed);
    return h + 1;
  }

  // Everything this thread holds goes to the depot; a bump tail that can
  // still fit the largest block is kept as a remnant. Idempotent.
  void release() {
    for (int c = 0; c < kPoolNumClasses; ++c) {
      ClassCache& k = cls[c];
      if (k.spare != nullptr) depot_push(c, k.spare, kChunk);
      if (k.cur != nullptr) depot_push(c, k.cur, k.n);
      k = ClassCache{};
    }
    if (static_cast<std::size_t>(bump_end - bump_cur) >=
        sizeof(BlockHeader) + kPoolMaxBlock) {
      auto* r = reinterpret_cast<Remnant*>(bump_cur);
      r->end = bump_end;
      g_remnants.push(r);
    }
    bump_cur = bump_end = nullptr;
  }
};

thread_local ThreadCache t_cache;

// The per-block part of every free: poison check and canary fill, free
// magic, and oversized blocks straight back to ::operator delete. Returns
// the size class, or -1 for an oversized block (already counted freed).
int mark_free(void* p, bool poison) {
  BlockHeader* h = header_of(p);
  if (poison && h->magic != kPoolMagicLive) {
    die(h->magic == kPoolMagicFree ? "double free" : "freeing corrupt block",
        p);
  }
  h->magic = kPoolMagicFree;
  if (h->size_class == kPoolOversized) {
    g_freed.fetch_add(1, std::memory_order_relaxed);
    ::operator delete(static_cast<void*>(h));
    return -1;
  }
  const int c = h->size_class;
  if (poison) std::memset(p, PoolAllocator::kPoisonByte, pool_class_bytes(c));
  return c;
}

}  // namespace

PoolAllocator& PoolAllocator::instance() {
  static PoolAllocator a;
  return a;
}

void* PoolAllocator::allocate(std::size_t size) {
  if (size <= kMaxBlockSize) return t_cache.alloc(pool_class_of(size));
  // Oversized: plain heap block tagged as such.
  auto* h = static_cast<BlockHeader*>(
      ::operator new(size + sizeof(BlockHeader)));
  h->size_class = kPoolOversized;
  h->magic = kPoolMagicLive;
  g_allocated.fetch_add(1, std::memory_order_relaxed);
  return h + 1;
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
  return p != nullptr &&
         header_of(const_cast<void*>(p))->magic == kPoolMagicFree;
}

PoolAllocator::Stats PoolAllocator::stats() const noexcept {
  return {g_allocated.load(std::memory_order_relaxed),
          g_freed.load(std::memory_order_relaxed),
          g_remote.load(std::memory_order_relaxed),
          g_remote_splices.load(std::memory_order_relaxed),
          g_slabs.load(std::memory_order_relaxed)};
}

}  // namespace pop::runtime
