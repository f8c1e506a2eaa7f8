// HMHT — hash table with Harris-Michael list buckets (the paper's HMHT,
// Figures 1b, 7, 11). A single reclamation domain is shared across all
// buckets; operations hash to a bucket sentinel and run the HmOps
// algorithm against it. With the paper's load factor the buckets stay
// short, so per-operation traversal cost is dominated by the SMR scheme's
// read-path overhead — which is why HMHT separates the schemes so
// clearly.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "ds/hm_list.hpp"

namespace pop::ds {

template <class Smr>
class HashTable {
 public:
  using Ops = HmOps<Smr>;
  using Node = typename Ops::Node;

  // `capacity` is the expected maximum number of keys; the bucket count
  // is ceil(capacity / load_factor) (the paper uses load factor 6) —
  // rounded UP: truncation used to turn any capacity below the load
  // factor into a single bucket, silently degrading the table to a list.
  explicit HashTable(uint64_t capacity, double load_factor = 6.0,
                     const smr::SmrConfig& cfg = {})
      : smr_(cfg) {
    uint64_t nbuckets = static_cast<uint64_t>(
        std::ceil(static_cast<double>(capacity) / load_factor));
    if (nbuckets == 0) nbuckets = 1;
    if (nbuckets < 2) {
      std::fprintf(stderr,
                   "popsmr: HMHT capacity %llu at load factor %.2f yields "
                   "%llu bucket(s) — the table degenerates to a list; "
                   "raise capacity or use RHHT\n",
                   static_cast<unsigned long long>(capacity), load_factor,
                   static_cast<unsigned long long>(nbuckets));
    }
    heads_.reserve(nbuckets);
    for (uint64_t i = 0; i < nbuckets; ++i) {
      heads_.push_back(smr_.template create<Node>(0));
    }
  }

  ~HashTable() {
    for (Node* h : heads_) smr::destroy_list(h);
  }

  bool get(uint64_t k, uint64_t* val_out) {
    return Ops::get(smr_, bucket(k), k, val_out);
  }
  PutResult put(uint64_t k, uint64_t v) {
    return Ops::put(smr_, bucket(k), k, v);
  }
  bool contains(uint64_t k) { return Ops::contains(smr_, bucket(k), k); }
  bool insert(uint64_t k, uint64_t v) {
    return Ops::insert(smr_, bucket(k), k, v);
  }
  bool insert(uint64_t k) { return insert(k, k); }
  bool erase(uint64_t k) { return Ops::erase(smr_, bucket(k), k); }

  uint64_t size_slow() const {
    uint64_t n = 0;
    for (Node* h : heads_) n += Ops::size_slow(h);
    return n;
  }

  uint64_t bucket_count() const { return heads_.size(); }
  Smr& domain() { return smr_; }

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;

 private:
  Node* bucket(uint64_t k) const {
    // Fibonacci multiplicative hash: spreads dense benchmark key ranges.
    const uint64_t h = k * 0x9e3779b97f4a7c15ull;
    return heads_[h % heads_.size()];
  }

  Smr smr_;  // destroyed last
  std::vector<Node*> heads_;
};

}  // namespace pop::ds
