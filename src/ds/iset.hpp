// Type-erased concurrent key-value map interface + factory over every
// (data structure x reclamation scheme) combination in the library.
//
// The benchmark driver, the service layer, and the integration tests are
// written against IKV so one binary can sweep the full matrix; virtual
// dispatch happens once per *operation* (amortized over a whole
// traversal) so it does not perturb the per-read costs the paper
// measures.
//
// IKV is the value-carrying surface (get / put / remove) plus a genuine
// insert-if-absent `insert` (it must NOT be a put shim: put replaces, and
// a replace retires a node — set-only benchmarks would silently change
// reclamation profile).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ds/kv.hpp"
#include "smr/smr_config.hpp"

namespace pop::ds {

struct SetConfig {
  // Expected maximum number of keys (hash-table bucket sizing).
  uint64_t capacity = 1 << 16;
  double load_factor = 6.0;  // hash table only; the paper uses 6
  smr::SmrConfig smr;
};

class IKV {
 public:
  virtual ~IKV() = default;

  // ---- map surface ---------------------------------------------------------
  // Returns true iff `key` is present; when `val_out` is non-null the
  // stored value is written through it. The value read is the one some
  // completed put/insert published: nodes are immutable after
  // publication, so a get never observes a torn value.
  virtual bool get(uint64_t key, uint64_t* val_out) = 0;

  // Insert-or-replace. kReplaced means an existing mapping was displaced:
  // the structure swapped in a fresh node and retired the old one through
  // its SMR domain (never an in-place value update — readers may still
  // hold the old node; see kv.hpp for the retirement contract).
  virtual PutResult put(uint64_t key, uint64_t val) = 0;

  virtual bool remove(uint64_t key) = 0;

  // Insert-if-absent with value == key; returns false (and retires
  // nothing) when the key is already present.
  virtual bool insert(uint64_t key) = 0;

  // ---- batch bracket -------------------------------------------------------
  // Brackets a pipelined run of point ops on the calling thread so the
  // scheme can amortize its per-op entry cost (the epoch/era announcement
  // fence) over the whole pipeline: one begin_op/end_op per batch instead
  // of per op. The default no-ops keep per-op brackets, which is always
  // correct — the batch bracket is a performance contract, never a safety
  // one. Callers must not touch any *other* IKV between batch_begin and
  // batch_end, and must never hold the bracket across a blocking wait
  // (see smr/domain_base.hpp for the skip mechanism and why NBR opts out).
  virtual void batch_begin() {}
  virtual void batch_end() {}

  // Called by each worker thread before it exits so reclaimers stop
  // waiting on it (and its reservations are dropped).
  virtual void detach_thread() = 0;

  // Fault injection for the scenario engine's stall workloads: parks the
  // calling thread *inside* an SMR operation bracket (begin_op held, any
  // entry-time reservation — e.g. an announced epoch/era — live) until
  // `release` becomes true. This is the paper's stalled-reader failure
  // mode on demand: under EBR the parked thread pins the global epoch and
  // garbage grows for as long as it sleeps; under the POP schemes a
  // reclaimer pings it and frees around its published reservations.
  virtual void park_in_operation(const std::atomic<bool>& release) = 0;

  // Fault injection for the crash scenarios: opens an SMR operation
  // bracket on the calling thread and returns WITHOUT closing it, as if
  // the thread died mid-operation. The caller must let the thread exit
  // immediately afterwards (no detach_thread) — this models a worker
  // killed inside a critical section, the failure mode the zombie reaper
  // exists to recover from. Default: no-op for adapters without a domain.
  virtual void abandon_in_operation() {}

  virtual smr::StatsSnapshot smr_stats() const = 0;

  // Resize counters (grows/shrinks/current buckets). Non-zero grows or
  // shrinks only for dynamically resizable structures (RHHT); the fixed
  // hash table reports its bucket count, everything else reports zeros.
  virtual ResizeStats resize_stats() const { return {}; }

  virtual uint64_t size_slow() const = 0;
  virtual std::string ds_name() const = 0;
  virtual std::string smr_name() const = 0;
};

// Known names (factory keys, also the benchmark row labels).
const std::vector<std::string>& all_smr_names();
const std::vector<std::string>& all_ds_names();

// Creates `ds` ("HML", "LL", "HMHT", "RHHT" — alias "rhht" — "DGT",
// "ABT") under `smr` ("NR", "HP", "HPAsym", "HE", "EBR", "IBR", "NBR",
// "BRC", "HazardPtrPOP", "HazardEraPOP", "EpochPOP"). Returns nullptr
// for unknown names, after printing one stderr line naming the bad name
// and the known catalogue.
std::unique_ptr<IKV> make_kv(const std::string& ds, const std::string& smr,
                             const SetConfig& cfg);

}  // namespace pop::ds
