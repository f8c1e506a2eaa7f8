// Base header embedded in every node managed by an SMR domain.
//
// birth_era / retire_era support the era-based schemes (HE, IBR,
// HazardEraPOP) which free a node only if no reservation intersects its
// lifespan [birth_era, retire_era]. Pointer-based schemes ignore them.
// rl_next links retired nodes into the owner's intrusive retire list so
// retiring never allocates.
//
// There is no per-node destruction hook. Every managed node is a pool
// block that is trivially destructible with this base at offset 0
// (DomainCore::create_node enforces both), so the Reclaimable pointer IS
// the allocation address: a sweep hands it straight to
// PoolAllocator::FreeBatch, which finds the size class in the header of
// the block's slab by masking the address. A node that owns an array carries it as trailing bytes of its
// own block (see ResizableHashTable::Table).
#pragma once

#include <cstdint>

namespace pop::smr {

struct Reclaimable {
  uint64_t birth_era = 0;
  uint64_t retire_era = 0;
  Reclaimable* rl_next = nullptr;
};
static_assert(sizeof(Reclaimable) == 24);

}  // namespace pop::smr
