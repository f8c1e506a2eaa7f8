// Shared command-line parsing for the bench binaries, layered UNDER the
// POPSMR_BENCH_* environment knobs for CI compatibility: each value flag
// seeds the corresponding env var only when that var is not already set,
// so `POPSMR_BENCH_THREADS=8 bench_x --threads 2` still runs 8 threads
// and existing CI recipes keep working unchanged.
//
//   --threads 1,2,4        -> POPSMR_BENCH_THREADS
//   --smr EBR,EpochPOP     -> POPSMR_BENCH_SMRS
//   --ds HML,HMHT          -> POPSMR_BENCH_DS
//   --shards 1,2,4,8       -> POPSMR_BENCH_SHARDS
//   --shard-hash modulo    -> POPSMR_SHARD_HASH    (bench_scenarios)
//   --duration-ms 200      -> POPSMR_BENCH_DURATION_MS
//   --json out.jsonl       -> POPSMR_BENCH_JSON
//   --latency              -> POPSMR_OBS_LATENCY=1 (per-op histograms)
//   --hw-counters          -> POPSMR_OBS_HW=1 (perf counters per phase)
//   --trace out.trace.json -> POPSMR_TRACE (Chrome trace dumped at exit)
//   --host 127.0.0.1       -> POPSMR_BENCH_HOST   (loadgen: remote server;
//                             popsmr_server: bind address)
//   --port 17979           -> POPSMR_BENCH_PORT   (0..65535; 0 = ephemeral)
//   --connections 4        -> POPSMR_BENCH_CONNECTIONS (loadgen)
//   --pipeline 8           -> POPSMR_BENCH_PIPELINE    (loadgen batch depth)
//   --net-workers 2        -> POPSMR_NET_WORKERS  (server epoll workers)
//   --scenario all|GLOB    scenario selection: the `all` matrix, or a
//                          name or shell glob (fig2-*)
//   --short                smoke mode: small key range, ~50 ms phases
//   --list                 list named scenarios and exit
//   --emit-schema          print the JSONL row schema (workload/rows.hpp)
//                          for tools/check_bench_jsonl.py and exit
//   --help                 usage and exit
//
// Unknown flags print usage and exit(2); binaries simply ignore the
// fields they don't consume. Identifier-valued flags (--scenario, --ds,
// --smr/--smrs, --shard-hash) are validated at parse time: names must
// match [A-Za-z0-9_-] (',' also allowed in list flags, and the glob
// characters *?[] in --scenario); anything else is diagnosed on one
// stderr line and rejected with exit(2) before it can leak into env
// vars, factory lookups, or JSONL string fields.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pop::bench {

struct CliOptions {
  std::string scenario;  // empty = binary's default ("all" for scenarios)
  bool short_mode = false;
  bool list = false;
};

// Parses argv, seeds env knobs (without overriding), and returns the
// flags that are not env-backed. Exits on --help / --emit-schema / parse
// errors.
CliOptions apply_bench_cli(int argc, char** argv);

// ---- env knobs --------------------------------------------------------
// Each reader takes the binary's default as `fallback`; the flags above
// seed the env only when unset, so an exported value wins. The thread and
// shard lists share one parser: tokens without a number and values below
// 1 are dropped, out-of-int-range values saturate, and a list that leaves
// nothing falls back.
std::vector<int> bench_thread_list(const std::string& fallback);
// Scheme and structure lists are checked against ds::all_smr_names() /
// ds::all_ds_names(): an unknown name is one stderr line and exit(2),
// before any cell runs. An empty smr fallback means every scheme.
std::vector<std::string> bench_smr_list(const std::string& fallback = "");
std::vector<std::string> bench_ds_list(const std::string& fallback);
std::vector<int> bench_shard_list(const std::string& fallback);
uint64_t bench_duration_ms(uint64_t fallback);

// ---- networked front-end knobs (bench_loadgen / popsmr_server) ------------
// POPSMR_BENCH_HOST / POPSMR_BENCH_PORT: where the loadgen connects (and
// where popsmr_server binds). Env wins over the --host/--port flags like
// every other knob; a malformed env value (bad charset, port out of
// [0, 65535]) is diagnosed on one stderr line and replaced by `fallback`
// — it must not leak into connect() or a JSONL label. An empty-string
// host fallback means "no remote server" (the loadgen spawns in-process).
std::string bench_host(const std::string& fallback);
int bench_port(int fallback);
// POPSMR_BENCH_CONNECTIONS / POPSMR_BENCH_PIPELINE / POPSMR_NET_WORKERS:
// loadgen connection count, pipelined batch depth, and server epoll
// worker count. Non-numeric or non-positive values fall back.
int bench_connections(int fallback);
int bench_pipeline(int fallback);
int bench_net_workers(int fallback);

}  // namespace pop::bench
