// Base headers embedded in every node managed by an SMR domain.
//
// Reclaimable is the 8-B header every scheme needs: rl_next links retired
// nodes into the owner's intrusive retire list so retiring never
// allocates. The retire epoch EBR and EpochPOP free by is not in the node:
// the retire list keeps one per segment (retire_list.hpp).
//
// EraReclaimable adds the lifespan [birth_era, retire_era] the era-based
// schemes (HE, IBR, HazardEraPOP) free by: a node is freeable only if no
// reservation intersects it, so both ends are per node. A scheme names
// the header its nodes need as Scheme::NodeHeader, and each data
// structure derives its nodes from the header of the Smr it is
// templated on; DomainBase::create rejects a node without it.
//
// There is no per-node destruction hook. Every managed node is a pool
// block that is trivially destructible with this base at offset 0
// (DomainCore::create_node enforces both), so the Reclaimable pointer IS
// the allocation address: a sweep hands it straight to
// PoolAllocator::FreeBatch, which finds the size class in the header of
// the block's slab by masking the address. A node that owns an array
// carries it as trailing bytes of its own block (see
// ResizableHashTable::Table).
#pragma once

#include <cstdint>

namespace pop::smr {

struct Reclaimable {
  Reclaimable* rl_next = nullptr;
};
static_assert(sizeof(Reclaimable) == 8);

struct EraReclaimable : Reclaimable {
  uint64_t birth_era = 0;
  uint64_t retire_era = 0;
};
static_assert(sizeof(EraReclaimable) == 24);

}  // namespace pop::smr
