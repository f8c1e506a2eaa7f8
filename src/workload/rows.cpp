#include "workload/rows.hpp"

namespace pop::workload {

namespace {

using obs::kPositive;

// The cell identity most kinds lead with.
void cell_fields(RowVisitor& v, const ScenarioSpec& spec) {
  v({{"scenario", spec.name}, {"ds", spec.ds}, {"smr", spec.smr}});
}

void latency_fields(RowVisitor& v, const obs::LatencySummary& s) {
  v({{"lat_ops", s.count}, {"lat_p50_us", s.p50_us}, {"lat_p90_us", s.p90_us},
     {"lat_p99_us", s.p99_us}, {"lat_p999_us", s.p999_us},
     {"lat_max_us", s.max_us}});
}

void percentile_fields(RowVisitor& v, const obs::LatencySummary& s) {
  v({{"p50_us", s.p50_us}, {"p90_us", s.p90_us}, {"p99_us", s.p99_us},
     {"p999_us", s.p999_us}, {"max_us", s.max_us}});
}

// llc_miss_rate is LLC misses per kilo-instruction.
void hw_fields(RowVisitor& v, const obs::HwSample& hw) {
  v({{"ipc", hw.ipc()}, {"llc_miss_rate", hw.llc_miss_rate()},
     {"hw_valid", hw.valid}});
}

// Present only when the contract sanitizer was armed: an unaudited run
// omits the column rather than writing a 0 that reads as "clean".
void audit_field(RowVisitor& v, const ScenarioResult& r) {
  v({{"audit_violations", r.audit_violations,
      obs::kOptional | obs::kMustBeZero, r.audit_on}});
}

void per_op_fields(RowVisitor& v, const OpCounts& c) {
  v({{"gets", c.gets}, {"get_hits", c.get_hits}, {"inserts", c.inserts},
     {"erases", c.erases}, {"puts", c.puts}, {"put_replaced", c.put_replaced},
     {"rw_violations", c.rw_violations}});
}

void net_op_fields(RowVisitor& v, const service::ConnectionStats& s) {
  v({{"ops", s.ops}, {"gets", s.gets}, {"get_hits", s.get_hits},
     {"puts", s.puts}, {"put_replaced", s.put_replaced}, {"dels", s.dels},
     {"del_hits", s.del_hits}, {"pings", s.pings},
     {"errors", s.protocol_errors}});
}

}  // namespace

void scenario_row(RowVisitor& v, const ScenarioSpec& spec,
                  const ScenarioResult& r) {
  v.kind("scenario");
  audit_field(v, r);
  latency_fields(v, r.latency_all);
  hw_fields(v, r.hw);
  cell_fields(v, spec);
  v({{"threads", spec.threads}, {"shards", spec.shards},
     {"seconds", r.seconds}, {"mops", r.mops}, {"read_mops", r.read_mops},
     {"retired", r.smr.retired}, {"freed", r.smr.freed},
     {"signals_sent", r.smr.signals_sent}, {"vm_hwm_kib", r.vm_hwm_kib},
     {"churn_cycles", r.churn_cycles},
     {"baseline_unreclaimed", r.baseline_unreclaimed},
     {"stall_peak_unreclaimed", r.stall_peak_unreclaimed},
     {"final_unreclaimed", r.final_unreclaimed},
     {"stall_parked_at_ms", r.stall_parked_at_ms},
     {"stall_resumed_at_ms", r.stall_resumed_at_ms}, {"grows", r.grows},
     {"shrinks", r.shrinks}, {"buckets_final", r.buckets_final}});
  per_op_fields(v, r);
  v({{"key_range", spec.key_range},
     {"initial_capacity",
      spec.initial_capacity > 0 ? spec.initial_capacity : spec.key_range},
     {"shard_hash", spec.shard_hash},
     {"pool_live_blocks", r.service.pool_live_blocks},
     {"pressure_bound", spec.smr_cfg.pressure_bound},
     {"pressure_events", r.smr.pressure_events},
     {"forced_handshakes", r.smr.forced_handshakes}, {"kills", r.kills},
     {"first_kill_at_ms", r.first_kill_at_ms},
     {"recovered_at_ms", r.recovered_at_ms},
     {"tids_reaped", r.smr.tids_reaped},
     {"orphans_adopted", r.smr.orphans_adopted},
     {"signals_suppressed", r.signals_suppressed},
     {"waves_timed_out", r.smr.waves_timed_out}});
}

void phase_row(RowVisitor& v, const ScenarioSpec& spec, std::size_t idx,
               const PhaseResult& p) {
  v.kind("phase");
  latency_fields(v, p.latency);
  hw_fields(v, p.hw);
  v({{"cycles", p.hw.cycles}, {"instructions", p.hw.instructions},
     {"llc_misses", p.hw.llc_misses}, {"ctx_switches", p.hw.ctx_switches}});
  cell_fields(v, spec);
  const smr::StatsSnapshot& d = p.smr_delta;
  v({{"phase", p.name}, {"idx", idx}, {"threads", p.threads},
     {"seconds", p.seconds}, {"mops", p.mops}, {"read_mops", p.read_mops},
     {"retired", d.retired}, {"freed", d.freed},
     {"signals_sent", d.signals_sent}, {"pings", d.pings_received},
     {"neutralized", d.neutralized}, {"max_retire_len", d.max_retire_len},
     {"unreclaimed_end", p.unreclaimed_end}});
  per_op_fields(v, p);
}

void mem_sample_row(RowVisitor& v, const ScenarioSpec& spec,
                    const MemSample& m) {
  v.kind("mem_sample");
  cell_fields(v, spec);
  const uint64_t live = m.pool_freed > m.pool_allocated
                            ? 0
                            : m.pool_allocated - m.pool_freed;
  v({{"t_ms", m.t_ms}, {"phase", m.phase}, {"vm_rss_kib", m.vm_rss_kib},
     {"vm_hwm_kib", m.vm_hwm_kib}, {"unreclaimed", m.unreclaimed()},
     {"pool_live_blocks", live}, {"victim_parked", m.victim_parked}});
}

void latency_row(RowVisitor& v, const ScenarioSpec& spec,
                 const ScenarioResult::OpLatency& l) {
  v.kind("latency");
  cell_fields(v, spec);
  v({{"threads", spec.threads}, {"shards", spec.shards}, {"op", l.op},
     {"count", l.lat.count}});
  percentile_fields(v, l.lat);
}

void shard_row(RowVisitor& v, const ScenarioSpec& spec,
               const service::ShardStats& s) {
  v.kind("shard");
  cell_fields(v, spec);
  v({{"threads", spec.threads}, {"shards", spec.shards}, {"shard", s.shard},
     {"ops", s.ops}, {"retired", s.smr.retired}, {"freed", s.smr.freed},
     {"unreclaimed", s.smr.unreclaimed()},
     {"signals_sent", s.smr.signals_sent}, {"get_hits", s.get_hits},
     {"get_misses", s.get_misses}, {"put_inserts", s.put_inserts},
     {"put_replaces", s.put_replaces}, {"resizes", s.resizes},
     {"buckets_final", s.buckets_final},
     {"waves_timed_out", s.smr.waves_timed_out},
     {"tids_reaped", s.smr.tids_reaped},
     {"pressure_events", s.smr.pressure_events},
     {"forced_handshakes", s.smr.forced_handshakes}});
}

void net_row(RowVisitor& v, const NetCellRow& cell) {
  v.kind("net");
  latency_fields(v, cell.latency);
  net_op_fields(v, cell.totals);
  const double mops =
      cell.seconds > 0.0
          ? static_cast<double>(cell.totals.ops) / cell.seconds / 1e6
          : 0.0;
  v({{"scenario", cell.scenario}, {"ds", cell.ds}, {"smr", cell.smr},
     {"threads", cell.workers}, {"shards", cell.shards},
     {"connections", cell.connections, kPositive},
     {"pipeline_depth", cell.pipeline_depth, kPositive},
     {"seconds", cell.seconds}, {"mops", mops}});
}

void conn_row(RowVisitor& v, const NetCellRow& cell, const ConnRow& c) {
  v.kind("conn");
  net_op_fields(v, c.stats);
  v({{"scenario", cell.scenario}, {"ds", cell.ds}, {"smr", cell.smr},
     {"conn", c.stats.conn_id}, {"connections", cell.connections, kPositive},
     {"pipeline_depth", cell.pipeline_depth, kPositive}});
  percentile_fields(v, c.latency);
}

std::string row_schema() {
  obs::SchemaWriter s;
  const ScenarioSpec spec;
  const ScenarioResult r;
  const NetCellRow cell;
  scenario_row(s, spec, r);
  phase_row(s, spec, 0, PhaseResult{});
  mem_sample_row(s, spec, MemSample{});
  latency_row(s, spec, ScenarioResult::OpLatency{});
  shard_row(s, spec, service::ShardStats{});
  net_row(s, cell);
  conn_row(s, cell, ConnRow{});
  return s.json();
}

}  // namespace pop::workload
