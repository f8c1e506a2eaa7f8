#include "service/sharded_map.hpp"

#include <algorithm>
#include <utility>

#include "runtime/pool_alloc.hpp"
#include "runtime/rng.hpp"

namespace pop::service {

namespace {

// Pure 64-bit mix (splitmix64 finalizer) for shard selection: adjacent
// keys land on unrelated shards, so uniform key traffic is uniform shard
// traffic even for range-heavy workloads.
uint64_t mix_key(uint64_t key) {
  uint64_t s = key;
  return runtime::splitmix64(s);
}

}  // namespace

ShardedMap::ShardedMap(std::vector<std::unique_ptr<ds::IKV>> shards,
                       ShardHash hash)
    : shards_(std::move(shards)),
      ops_(shards_.size() * kLanes),
      hash_(hash) {}

std::unique_ptr<ShardedMap> ShardedMap::create(const std::string& ds,
                                               const std::string& smr,
                                               const ShardedMapConfig& cfg) {
  const int n = cfg.shards < 1 ? 1 : cfg.shards;
  ds::SetConfig per_shard = cfg.set;
  per_shard.capacity =
      std::max<uint64_t>(64, cfg.set.capacity / static_cast<uint64_t>(n));
  std::vector<std::unique_ptr<ds::IKV>> shards;
  shards.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto s = ds::make_kv(ds, smr, per_shard);
    if (s == nullptr) return nullptr;  // make_kv named the bad name already
    shards.push_back(std::move(s));
  }
  return std::unique_ptr<ShardedMap>(
      new ShardedMap(std::move(shards), cfg.hash));
}

int ShardedMap::shard_of(uint64_t key) const {
  const uint64_t n = static_cast<uint64_t>(shards_.size());
  switch (hash_) {
    case ShardHash::kSplitMix64:
      return static_cast<int>(mix_key(key) % n);
    case ShardHash::kModulo:
      return static_cast<int>(key % n);
  }
  return 0;  // unreachable
}

smr::StatsSnapshot ShardedMap::smr_stats() const {
  smr::StatsSnapshot total;
  for (const auto& s : shards_) total.absorb(s->smr_stats());
  return total;
}

ds::ResizeStats ShardedMap::resize_stats() const {
  ds::ResizeStats total;
  for (const auto& s : shards_) {
    const ds::ResizeStats r = s->resize_stats();
    total.grows += r.grows;
    total.shrinks += r.shrinks;
    total.buckets += r.buckets;
  }
  return total;
}

uint64_t ShardedMap::size_slow() const {
  uint64_t n = 0;
  for (const auto& s : shards_) n += s->size_slow();
  return n;
}

void ShardedMap::sum_lanes(std::size_t shard, uint64_t (&lanes)[kLanes]) const {
  // One pass over the rows that exist, all lanes at once: a thread that
  // never routed an op has no row (the mem-timeline sampler snapshots at
  // cadence, so this runs on a timer).
  for (int l = 0; l < kLanes; ++l) lanes[l] = 0;
  ops_.for_each([&](int, const std::atomic<uint64_t>& row) {
    const std::atomic<uint64_t>* cell = &row + shard * kLanes;
    for (int l = 0; l < kLanes; ++l) {
      lanes[l] += cell[l].load(std::memory_order_relaxed);
    }
  });
}

ServiceStats ShardedMap::service_stats() const {
  ServiceStats out;
  out.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardStats ss;
    ss.shard = static_cast<int>(i);
    uint64_t lanes[kLanes];
    sum_lanes(i, lanes);
    ss.get_hits = lanes[kLaneGetHit];
    ss.get_misses = lanes[kLaneGetMiss];
    ss.put_inserts = lanes[kLanePutInsert];
    ss.put_replaces = lanes[kLanePutReplace];
    ss.ops = lanes[kLaneOther] + ss.get_hits + ss.get_misses +
             ss.put_inserts + ss.put_replaces;
    ss.smr = shards_[i]->smr_stats();
    const ds::ResizeStats rs = shards_[i]->resize_stats();
    ss.resizes = rs.resizes();
    ss.buckets_final = rs.buckets;
    out.smr.absorb(ss.smr);
    out.ops_total += ss.ops;
    out.get_hits_total += ss.get_hits;
    out.get_misses_total += ss.get_misses;
    out.put_inserts_total += ss.put_inserts;
    out.put_replaces_total += ss.put_replaces;
    out.resizes_total += ss.resizes;
    out.buckets_total += ss.buckets_final;
    out.shards.push_back(std::move(ss));
  }
  const auto ps = runtime::PoolAllocator::instance().stats();
  out.pool_live_blocks = ps.freed_blocks > ps.allocated_blocks
                             ? 0
                             : ps.allocated_blocks - ps.freed_blocks;
  return out;
}

std::unique_ptr<ds::IKV> make_service_set(const std::string& ds,
                                          const std::string& smr,
                                          const ds::SetConfig& cfg,
                                          int shards, ShardHash hash) {
  if (shards <= 1) return ds::make_kv(ds, smr, cfg);
  ShardedMapConfig sc;
  sc.shards = shards;
  sc.hash = hash;
  sc.set = cfg;
  return ShardedMap::create(ds, smr, sc);
}

bool parse_shard_hash(const std::string& name, ShardHash* out) {
  if (name == "splitmix") {
    *out = ShardHash::kSplitMix64;
    return true;
  }
  if (name == "modulo") {
    *out = ShardHash::kModulo;
    return true;
  }
  return false;
}

const char* shard_hash_name(ShardHash h) {
  return h == ShardHash::kModulo ? "modulo" : "splitmix";
}

}  // namespace pop::service
