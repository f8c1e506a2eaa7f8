// The operation-mix and per-op-result vocabulary the scenario engine's
// PhaseSpec, PhaseResult and ScenarioResult share.
#pragma once

#include <cstdint>

namespace pop::workload {

// Operation mix in percent; the remainder of a [0, 100) roll is get()
// (== contains for key-only callers). put is insert-or-replace: on an
// existing key it swaps in a fresh node and retires the displaced one,
// the KV-specific reclamation traffic class set-only mixes never create.
struct OpMix {
  uint32_t pct_insert = 25;
  uint32_t pct_erase = 25;
  uint32_t pct_put = 0;

  bool operator==(const OpMix&) const = default;
};

// Per-op counters accumulated by a run (a phase, or a whole scenario).
// reads = gets; updates = inserts + erases + puts.
struct OpCounts {
  uint64_t ops = 0;
  uint64_t reads = 0;
  uint64_t updates = 0;
  uint64_t gets = 0;
  uint64_t get_hits = 0;
  uint64_t inserts = 0;
  uint64_t erases = 0;
  uint64_t puts = 0;
  uint64_t put_replaced = 0;  // puts that displaced (and retired) a node
  // Read-your-writes violations observed by the validation mode (a get
  // on a worker-private key returning anything but the worker's latest
  // completed write). Always 0 on a correct build.
  uint64_t rw_violations = 0;

  void accumulate(const OpCounts& o) {
    ops += o.ops;
    reads += o.reads;
    updates += o.updates;
    gets += o.gets;
    get_hits += o.get_hits;
    inserts += o.inserts;
    erases += o.erases;
    puts += o.puts;
    put_replaced += o.put_replaced;
    rw_violations += o.rw_violations;
  }
};

}  // namespace pop::workload
