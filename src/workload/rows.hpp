// Every JSONL row kind the bench binaries write, each declared once as a
// field-visitor function (see obs/row_writer.hpp). JsonlFile walks a kind
// to write a row; row_schema() walks every kind to export the schema
// tools/check_bench_jsonl.py validates artifacts against.
//
//   scenario, phase, mem_sample, latency, shard   bench_scenarios
//   kv                                            bench_kv
//   resize                                        bench_resize
//   fault, pressure                               bench_faults
//   sharded                                       bench_sharded
//   net, conn                                     bench_loadgen
//   micro                                         bench_micro_free_batch
//
// Values are numbers and [A-Za-z0-9_-] identifiers. Rows that summarize
// a workload run carry the lat_* percentile block (zero-filled when the
// latency channel was off) and, for scenario/phase, the hardware-counter
// block (hw_valid = 0 when perf_event_open was refused).
#pragma once

#include <cstdint>
#include <string>

#include "obs/latency_histo.hpp"
#include "obs/row_writer.hpp"
#include "service/service_stats.hpp"
#include "workload/scenario.hpp"

namespace pop::workload {

// One bench_loadgen cell: identity plus what every connection did.
struct NetCellRow {
  std::string scenario;
  std::string ds;
  std::string smr;
  int workers = 0;  // server worker threads, the row's `threads` column
  int shards = 0;
  int connections = 0;
  int pipeline_depth = 0;
  double seconds = 0.0;
  service::ConnectionStats totals;  // summed over connections
  obs::LatencySummary latency;      // merged client-side request latency
};

struct ConnRow {
  service::ConnectionStats stats;  // client-side view of one connection
  obs::LatencySummary latency;
};

// One bench_micro_free_batch thread count: per-node vs batched frees.
struct FreeBatchRow {
  int threads = 0;
  double per_node_mfrees = 0;
  double batched_mfrees = 0;
  double speedup = 0;
  uint64_t batched_remote_frees = 0;
  uint64_t batched_remote_splices = 0;
};

using obs::RowVisitor;

void scenario_row(RowVisitor& v, const ScenarioSpec& spec,
                  const ScenarioResult& r);
void phase_row(RowVisitor& v, const ScenarioSpec& spec, std::size_t idx,
               const PhaseResult& p);
void mem_sample_row(RowVisitor& v, const ScenarioSpec& spec,
                    const MemSample& m);
// Per op/reclamation kind that recorded samples (get, put, ping_wave, ..).
void latency_row(RowVisitor& v, const ScenarioSpec& spec,
                 const ScenarioResult::OpLatency& l);
// Per shard of a sharded run, fault-recovery counters included.
void shard_row(RowVisitor& v, const ScenarioSpec& spec,
               const service::ShardStats& s);
void kv_row(RowVisitor& v, const ScenarioSpec& spec, uint32_t pct_put,
            const ScenarioResult& r);
// recovery_pct is steady-phase Mops as a percentage of the correctly
// provisioned fixed-table reference in the same (smr, threads) cell.
void resize_row(RowVisitor& v, const ScenarioSpec& spec, uint64_t deficit,
                double storm_mops, double steady_mops, double recovery_pct,
                const ScenarioResult& r);
void fault_row(RowVisitor& v, const ScenarioSpec& spec,
               const std::string& fault, const ScenarioResult& r);
void pressure_row(RowVisitor& v, const ScenarioSpec& spec,
                  const ScenarioResult& r);
void sharded_row(RowVisitor& v, const ScenarioSpec& spec,
                 const ScenarioResult& r);
void net_row(RowVisitor& v, const NetCellRow& cell);
void conn_row(RowVisitor& v, const NetCellRow& cell, const ConnRow& c);
void micro_row(RowVisitor& v, const FreeBatchRow& m);

// The JSON schema of every kind above (SchemaWriter format).
std::string row_schema();

}  // namespace pop::workload
