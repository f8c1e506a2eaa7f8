// The JSONL row kinds: one declaration per kind is both what JsonlFile
// writes and what --emit-schema exports, so a written row matches its
// schema field for field, and the schema carries the per-field facts
// tools/check_bench_jsonl.py enforces.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "workload/rows.hpp"

namespace pop::workload {
namespace {

// Each kind's field names, then each field's schema line, by scanning the
// schema text (one kind header or field per line).
std::map<std::string, std::vector<std::string>> schema_fields(
    std::map<std::string, std::string>* lines = nullptr) {
  std::map<std::string, std::vector<std::string>> out;
  std::string kind, line;
  std::istringstream in(row_schema());
  while (std::getline(in, line)) {
    const size_t q = line.find('"');
    if (line.rfind("  \"", 0) == 0) {
      kind = line.substr(3, line.find('"', 3) - 3);
    }
    if (line.rfind("    {\"name\": \"", 0) != 0) continue;
    const std::string name = line.substr(14, line.find('"', 14) - 14);
    out[kind].push_back(name);
    if (lines) {
      (*lines)[kind + "." + name] = line.substr(q - 1, line.rfind('}') - q + 2);
    }
  }
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> out;
  for (std::string l; std::getline(in, l);) out.push_back(l);
  std::remove(path.c_str());
  return out;
}

TEST(Rows, WrittenRowsMatchTheirSchema) {
  const std::string path = "rows_" + std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  ScenarioSpec spec;
  ScenarioResult r;
  r.audit_on = true;  // the optional column is written when armed
  {
    obs::JsonlFile out(path);
    out.write(scenario_row, spec, r);
    out.write(phase_row, spec, 0, PhaseResult{});
    out.write(shard_row, spec, service::ShardStats{});
    out.write(conn_row, NetCellRow{}, ConnRow{});
    obs::JsonlFile("").write(conn_row, NetCellRow{}, ConnRow{});  // inert
  }
  const auto rows = read_lines(path);
  ASSERT_EQ(rows.size(), 4u);
  const auto schema = schema_fields();
  const char* kinds[] = {"scenario", "phase", "shard", "conn"};
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].rfind(std::string("{\"kind\":\"") + kinds[i], 0), 0u);
    std::vector<std::string> names;
    for (size_t j = rows[i].find(",\""); j != std::string::npos;
         j = rows[i].find(",\"", j + 1)) {
      names.push_back(rows[i].substr(j + 2, rows[i].find('"', j + 2) - j - 2));
    }
    EXPECT_EQ(names, schema.at(kinds[i])) << rows[i];
  }
}

TEST(Rows, ValuesEncodeAsJson) {
  const std::string path = "rows_" + std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  ScenarioSpec spec;
  spec.name = "a\"b";
  spec.threads = 8;
  ScenarioResult r;
  r.mops = 12.5;
  r.read_mops = std::nan("");  // not JSON: written as null, failing checks
  r.kills = UINT64_MAX;
  {
    obs::JsonlFile out(path);
    out.write(scenario_row, spec, r);
  }
  const auto rows = read_lines(path);
  ASSERT_EQ(rows.size(), 1u);
  for (const char* s :
       {"\"scenario\":\"a\\\"b\",", "\"threads\":8,", "\"mops\":12.5,",
        "\"read_mops\":null,", "\"kills\":18446744073709551615,"}) {
    EXPECT_NE(rows[0].find(s), std::string::npos) << s << " in " << rows[0];
  }
  // An unaudited run omits the sanitizer column instead of writing 0.
  EXPECT_EQ(rows[0].find("audit_violations"), std::string::npos);
}

TEST(Rows, SchemaCarriesTheCheckerFacts) {
  std::map<std::string, std::string> line;
  const auto schema = schema_fields(&line);
  EXPECT_EQ(schema.size(), 7u);
  for (const char* gone :
       {"kv", "resize", "fault", "pressure", "sharded", "micro"}) {
    EXPECT_EQ(schema.count(gone), 0u) << gone;
  }
  for (const auto& [kind, fields] : schema) {
    EXPECT_EQ(fields.at(0), "run_id") << kind;
    EXPECT_EQ(fields.at(1), "ts") << kind;
  }
  // The one kind with the sanitizer column (the fault cells are scenario
  // rows now).
  std::vector<std::string> audited;
  for (const auto& [f, l] : line) {
    if (f.find(".audit_violations") != std::string::npos) audited.push_back(f);
  }
  EXPECT_EQ(audited, std::vector<std::string>{"scenario.audit_violations"});
  EXPECT_EQ(line.at("scenario.audit_violations"),
            "{\"name\": \"audit_violations\", \"type\": \"int\", "
            "\"optional\": true, \"equals\": 0}");
  for (const char* f : {"net.connections", "net.pipeline_depth",
                        "conn.connections", "conn.pipeline_depth"}) {
    EXPECT_NE(line.at(f).find("\"type\": \"int\", \"min\": 1}"),
              std::string::npos)
        << f;
  }
  // The only bool-as-int flags.
  std::vector<std::string> flags;
  for (const auto& [f, l] : line) {
    if (l.find("\"flag\"") != std::string::npos) flags.push_back(f);
  }
  EXPECT_EQ(flags, (std::vector<std::string>{
                       "mem_sample.victim_parked", "phase.hw_valid",
                       "scenario.hw_valid"}));
  // Every kind that records latency carries the whole lat_* block.
  for (const char* kind : {"scenario", "phase", "net"}) {
    const std::string k = std::string(kind) + ".";
    EXPECT_NE(line.at(k + "lat_ops").find("\"int\""), std::string::npos)
        << kind;
    for (const char* f : {"lat_p50_us", "lat_p90_us", "lat_p99_us",
                          "lat_p999_us", "lat_max_us"}) {
      EXPECT_NE(line.at(k + f).find("\"num\""), std::string::npos) << k + f;
    }
  }
  for (const char* f : {"scenario.ipc", "scenario.llc_miss_rate",
                        "phase.ipc", "conn.p999_us"}) {
    EXPECT_NE(line.at(f).find("\"num\""), std::string::npos) << f;
  }
  // The columns the sweep kinds carried, now on the scenario row.
  for (const char* f :
       {"shard.forced_handshakes", "shard.retired", "net.errors",
        "scenario.key_range", "scenario.initial_capacity",
        "scenario.pool_live_blocks", "scenario.pressure_bound",
        "scenario.pressure_events", "scenario.forced_handshakes",
        "scenario.kills", "scenario.first_kill_at_ms",
        "scenario.recovered_at_ms", "scenario.tids_reaped",
        "scenario.orphans_adopted", "scenario.signals_suppressed",
        "scenario.waves_timed_out"}) {
    EXPECT_NE(line.at(f).find("\"int\""), std::string::npos) << f;
  }
  for (const char* f : {"latency.op", "scenario.shard_hash"}) {
    EXPECT_NE(line.at(f).find("\"str\""), std::string::npos) << f;
  }
}

}  // namespace
}  // namespace pop::workload
