// Every JSONL row kind the bench binaries write, each declared once as a
// field-visitor function (see obs/row_writer.hpp). JsonlFile walks a kind
// to write a row; row_schema() walks every kind to export the schema
// tools/check_bench_jsonl.py validates artifacts against.
//
//   scenario, phase, mem_sample, latency, shard   bench_scenarios
//   net, conn                                     bench_loadgen
//
// A sweep axis is a registry entry or a cell column, not a kind: the
// put ratio and resize deficit are in the entry name (kv-put-50,
// grow-storm-64), the shard count and hash, the provisioned capacity and
// the fault and backstop counters are scenario columns, and a storm or
// steady phase's Mops is its phase row.
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
void net_row(RowVisitor& v, const NetCellRow& cell);
void conn_row(RowVisitor& v, const NetCellRow& cell, const ConnRow& c);

// The JSON schema of every kind above (SchemaWriter format).
std::string row_schema();

}  // namespace pop::workload
