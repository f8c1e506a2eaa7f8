// ShardedMap: a sharded key-value service layer over the IKV matrix.
//
// The key space is partitioned over N independent IKV instances, each
// owning its *own* SMR domain — the composition publish-on-ping makes
// cheap: reservations stay private per thread regardless of how many
// domains it touches, and one ping publishes the reservations of every
// co-resident domain on the receiving thread (the SignalBus notifies all
// clients), so concurrent reclaimers across shards coalesce onto shared
// ping waves (see PopEngine's process-wide handshake round).
//
// Sharding splits domain-level contention — retire lists, wave
// membership, epoch advances — N ways, which is what lets throughput
// rise with shard count once a single domain saturates. ShardedMap is
// itself an IKV, so the scenario engine,
// benchmarks, and tests can run it anywhere a monolithic map runs; the
// routing layer additionally tracks get hit/miss and put insert/replace
// outcomes per shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ds/iset.hpp"
#include "runtime/thread_registry.hpp"
#include "runtime/tid_rows.hpp"
#include "service/service_stats.hpp"

namespace pop::service {

// Shard-selection hash. kSplitMix64 scatters adjacent keys across shards
// (uniform load, the service default); kModulo keeps key % N locality so
// contiguous ranges map to predictable shards (deterministic tests,
// range-partitioned deployments).
enum class ShardHash { kSplitMix64, kModulo };

struct ShardedMapConfig {
  int shards = 4;
  ShardHash hash = ShardHash::kSplitMix64;
  // Per-shard structures size themselves from capacity / shards (floored
  // at 64) so a sharded map's total footprint matches the monolithic one.
  ds::SetConfig set;
};

class ShardedMap final : public ds::IKV {
 public:
  // Builds `shards` independent (ds, smr) maps; nullptr on unknown names
  // (ds::make_kv reports which name was bad on stderr).
  static std::unique_ptr<ShardedMap> create(const std::string& ds,
                                            const std::string& smr,
                                            const ShardedMapConfig& cfg);

  // ---- IKV: operations route by shard_of(key) ----------------------------
  bool get(uint64_t key, uint64_t* val_out) override {
    const int s = shard_of(key);
    const bool hit = shards_[s]->get(key, val_out);
    count_op(s, hit ? kLaneGetHit : kLaneGetMiss);
    return hit;
  }
  ds::PutResult put(uint64_t key, uint64_t val) override {
    const int s = shard_of(key);
    const ds::PutResult r = shards_[s]->put(key, val);
    count_op(s, r == ds::PutResult::kReplaced ? kLanePutReplace
                                              : kLanePutInsert);
    return r;
  }
  bool remove(uint64_t key) override {
    const int s = shard_of(key);
    count_op(s, kLaneOther);
    return shards_[s]->remove(key);
  }
  bool insert(uint64_t key) override {
    const int s = shard_of(key);
    count_op(s, kLaneOther);
    return shards_[s]->insert(key);
  }

  // Opens the batch bracket on every shard's domain: a pipelined batch
  // routes by key, so any shard may be hit, and each shard owns its own
  // domain. Costs one begin_op per shard per batch — the amortization
  // wins when the pipeline depth exceeds the shard count, which is the
  // regime the networked front end runs in (documented in the README).
  void batch_begin() override {  // smr-lint: allow(R3) bracket forwarder
    for (auto& s : shards_) s->batch_begin();
  }
  void batch_end() override {  // smr-lint: allow(R3) bracket forwarder
    // Reverse order so scope depth unwinds symmetrically.
    for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
      (*it)->batch_end();
    }
  }

  // Detaches the calling thread from *every* shard's domain. Detaching
  // from a domain the thread never attached to is a no-op by scheme
  // contract, so threads that only ever touched a subset are fine.
  void detach_thread() override {
    for (auto& s : shards_) s->detach_thread();
  }

  // Parks inside shard 0's domain: a stalled reader pins one shard's
  // reservations, the service-shaped version of the paper's failure mode
  // (the other shards keep reclaiming around it).
  void park_in_operation(const std::atomic<bool>& release) override {
    shards_[0]->park_in_operation(release);
  }

  // Dies inside shard 0's domain (same shard choice as the stall fault).
  void abandon_in_operation() override { shards_[0]->abandon_in_operation(); }

  smr::StatsSnapshot smr_stats() const override;
  // Roll-up over shards: grows/shrinks sum, buckets is the total across
  // shards (each shard resizes independently on its own load).
  ds::ResizeStats resize_stats() const override;
  uint64_t size_slow() const override;
  std::string ds_name() const override { return shards_[0]->ds_name(); }
  std::string smr_name() const override { return shards_[0]->smr_name(); }

  // ---- service surface ---------------------------------------------------
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int shard_of(uint64_t key) const;
  ds::IKV& shard(int i) { return *shards_[i]; }
  const ds::IKV& shard(int i) const { return *shards_[i]; }
  ShardHash hash() const { return hash_; }

  // Per-shard breakdown + roll-up + pool occupancy; counter reads are
  // racy-but-benign SWMR like every stats surface in the library.
  ServiceStats service_stats() const;

 private:
  // One counter lane per routed-op outcome; a shard's total ops is the
  // sum over lanes, so every operation costs exactly one increment.
  enum Lane : int {
    kLaneOther = 0,      // insert / remove
    kLaneGetHit = 1,
    kLaneGetMiss = 2,
    kLanePutInsert = 3,
    kLanePutReplace = 4,
    kLanes = 5,
  };

  ShardedMap(std::vector<std::unique_ptr<ds::IKV>> shards, ShardHash hash);

  // Per-(thread, shard, lane) counter: each cell is written only by its
  // owning thread (the relaxed load+store pair compiles to a plain
  // increment), so routing adds no shared-line write — a shared per-shard
  // counter would ping-pong its cache line between every core hitting a
  // hot shard and skew the very scaling the layer exists to measure.
  // A thread's row (kLanes cells per shard) is allocated on its first
  // routed op, on cache lines of its own.
  void count_op(int s, Lane lane) {
    auto& c = (&ops_.get(runtime::my_tid()))[s * kLanes + lane];
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  void sum_lanes(std::size_t shard, uint64_t (&lanes)[kLanes]) const;

  std::vector<std::unique_ptr<ds::IKV>> shards_;
  runtime::TidRows<std::atomic<uint64_t>> ops_;
  ShardHash hash_;
};

// Service-aware map factory: a ShardedMap for shards > 1, the plain
// monolithic map for shards <= 1 (zero routing overhead when the axis is
// off). nullptr on unknown ds/smr names (reported on stderr by the
// underlying factory).
std::unique_ptr<ds::IKV> make_service_set(const std::string& ds,
                                          const std::string& smr,
                                          const ds::SetConfig& cfg,
                                          int shards,
                                          ShardHash hash = ShardHash::kSplitMix64);

// Parses a shard-hash name ("splitmix" | "modulo"); returns true and
// writes `out` on success.
bool parse_shard_hash(const std::string& name, ShardHash* out);
const char* shard_hash_name(ShardHash h);

}  // namespace pop::service
