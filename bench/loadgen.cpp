// bench_loadgen: the socket loadgen for the networked front end. Replays
// a named scenario's op mixes and key distributions (the same registry
// bench_scenarios sweeps — see src/workload/scenarios.hpp) over M
// connections x P-deep pipelines against a popsmr server, measuring
// END-TO-END latency: encode + socket + epoll + framing + the batched
// map ops + the response path, as a client of a pipelined connection
// experiences it.
//
// Two modes:
//   * in-process (default): each (ds, smr) cell spawns its own NetServer
//     on an ephemeral loopback port, runs the cell, tears it down — the
//     full sweep works in one process with zero setup.
//   * remote (--host set, e.g. --host 127.0.0.1 --port 17979): drives an
//     already-running popsmr_server; one cell, labelled with the local
//     --ds/--smr flags (the wire protocol does not carry the server's).
//
//   bench_loadgen --ds HMHT,RHHT --smr EBR,EpochPOP --connections 4
//                 --pipeline 8 --short --json net.jsonl
//   bench_loadgen --scenario hotspot-churn --connections 16 --pipeline 32
//
// Wire-op mapping from the scenario mix: pct_insert + pct_put -> PUT
// (the wire has no insert-if-absent), pct_erase -> DEL, remainder ->
// GET; plus one PING per connection per phase start. With
// POPSMR_BENCH_JSON set, every cell appends one kind-tagged "net"
// summary row and one "conn" row per connection.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/latency_histo.hpp"
#include "obs/obs.hpp"
#include "runtime/env.hpp"
#include "runtime/rng.hpp"
#include "workload/key_dist.hpp"
#include "workload/rows.hpp"
#include "workload/scenario_engine.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace pop;
using namespace pop::bench;
using namespace pop::workload;

struct ConnOutcome {
  service::ConnectionStats stats;
  obs::HistoSnapshot histo;
  bool failed = false;  // socket/protocol error mid-run
};

// Replays one phase on one established connection until the deadline.
void run_phase_on_conn(net::NetClient* client, const ScenarioSpec& spec,
                       const PhaseSpec& phase, const runtime::ZipfTable* zipf,
                       int pipeline, uint64_t deadline_ns, uint64_t seed,
                       ConnOutcome* out) {
  runtime::Xoshiro256 rng(seed);
  const KeyPicker picker(phase.keys, spec.key_range, zipf);
  const uint64_t phase_start = obs::now_ns();

  if (!client->ping()) {
    out->failed = true;
    return;
  }
  out->stats.pings++;
  out->stats.ops++;

  std::vector<net::Request> reqs;
  std::vector<net::Response> resps;
  std::vector<uint64_t> lats;
  const uint32_t pct_write = phase.pct_insert + phase.pct_put;
  while (obs::now_ns() < deadline_ns) {
    // Moving hotspots: the window index advances on wall time, same rule
    // as the scenario engine's coordinator.
    const uint64_t hot_window =
        phase.keys.hot_move_every_ms > 0
            ? (obs::now_ns() - phase_start) / 1000000u /
                  phase.keys.hot_move_every_ms
            : 0;
    reqs.clear();
    for (int p = 0; p < pipeline; ++p) {
      const uint64_t key = picker.next(rng, hot_window);
      const uint32_t roll =
          static_cast<uint32_t>(rng.next_below(100));
      if (roll < pct_write) {
        reqs.push_back({net::Op::kPut, key, rng.next()});
      } else if (roll < pct_write + phase.pct_erase) {
        reqs.push_back({net::Op::kDel, key, 0});
      } else {
        reqs.push_back({net::Op::kGet, key, 0});
      }
    }
    if (!client->exec_batch(reqs, &resps, &lats)) {
      out->failed = true;
      return;
    }
    for (size_t i = 0; i < reqs.size(); ++i) {
      out->histo.add(lats[i]);
      auto& st = out->stats;
      st.ops++;
      switch (reqs[i].op) {
        case net::Op::kGet:
          st.gets++;
          if (resps[i].status == net::Status::kHit) st.get_hits++;
          break;
        case net::Op::kPut:
          st.puts++;
          if (resps[i].status == net::Status::kReplaced) st.put_replaced++;
          break;
        case net::Op::kDel:
          st.dels++;
          if (resps[i].status == net::Status::kHit) st.del_hits++;
          break;
        case net::Op::kPing:
          st.pings++;
          break;
      }
    }
    out->stats.batches++;
    if (reqs.size() > out->stats.max_batch) {
      out->stats.max_batch = reqs.size();
    }
  }
}

// Prefills the map through the wire (PUT key -> key), pipelined.
bool prefill_over_wire(net::NetClient* client, uint64_t prefill,
                       int pipeline) {
  std::vector<net::Request> reqs;
  std::vector<net::Response> resps;
  for (uint64_t k = 0; k < prefill;) {
    reqs.clear();
    for (int p = 0; p < pipeline && k < prefill; ++p, ++k) {
      reqs.push_back({net::Op::kPut, k, k});
    }
    if (!client->exec_batch(reqs, &resps)) return false;
  }
  return true;
}

void print_header(const ScenarioEntry& e) {
  std::printf("\n# loadgen %s: %s\n", e.name.c_str(), e.description.c_str());
  std::printf("%-5s %-13s %4s %6s %5s %5s %8s %9s %9s %9s %7s\n", "ds", "smr",
              "wkrs", "shards", "conns", "pipe", "Mops", "p50(us)", "p99(us)",
              "p999(us)", "errors");
  std::fflush(stdout);
}

// One (ds, smr) cell: spins up / connects, prefills, replays every
// phase, emits the table row + JSONL. Returns false on a hard failure
// (server refused to build, no connection survived).
bool run_cell(const std::string& scenario, const std::string& ds,
              const std::string& smr, int shards, int workers,
              int connections, int pipeline, const std::string& host,
              int port, double time_scale, uint64_t key_range,
              obs::JsonlFile& out) {
  ScenarioBuild b;
  b.ds = ds;
  b.smr = smr;
  b.threads = connections;
  b.time_scale = time_scale;
  b.key_range = key_range;
  b.shards = shards;
  ScenarioSpec spec = *make_scenario(scenario, b);
  for (const auto& w : normalize(spec)) {
    std::fprintf(stderr, "bench_loadgen %s: %s\n", scenario.c_str(), w.c_str());
  }

  // In-process server per cell unless a remote host was given.
  std::unique_ptr<net::NetServer> server;
  std::string target_host = host;
  uint16_t target_port = static_cast<uint16_t>(port);
  if (host.empty()) {
    net::NetServerConfig cfg;
    cfg.ds = ds;
    cfg.smr = smr;
    cfg.shards = spec.shards;
    cfg.workers = workers;
    cfg.port = 0;  // ephemeral
    cfg.set.capacity = spec.key_range;
    cfg.set.load_factor = spec.load_factor;
    cfg.set.smr = spec.smr_cfg;
    server = net::NetServer::create(cfg);
    if (!server) return false;
    server->start();
    target_host = "127.0.0.1";
    target_port = server->port();
  }

  // Shared generator state: one Zipf table per cell when any phase is
  // Zipfian (the CDF build is O(key_range), do it once).
  std::unique_ptr<runtime::ZipfTable> zipf;
  for (const auto& ph : spec.phases) {
    if (ph.keys.kind == KeyDist::kZipfian && !zipf) {
      zipf = std::make_unique<runtime::ZipfTable>(spec.key_range,
                                                  ph.keys.zipf_theta);
    }
  }

  std::vector<std::unique_ptr<net::NetClient>> clients;
  std::vector<ConnOutcome> outcomes(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    auto cl = std::make_unique<net::NetClient>();
    if (!cl->connect_tcp(target_host, target_port)) return false;
    outcomes[static_cast<size_t>(c)].stats.conn_id = static_cast<uint64_t>(c);
    clients.push_back(std::move(cl));
  }

  // spec.prefill's UINT64_MAX sentinel means "default": the engine
  // resolves it at prefill time (key_range / 2), not in normalize() —
  // mirror that here or the wire prefill would try to insert 2^64 keys.
  const uint64_t prefill =
      spec.prefill == UINT64_MAX ? spec.key_range / 2 : spec.prefill;
  if (!prefill_over_wire(clients[0].get(), prefill, pipeline)) {
    std::fprintf(stderr, "bench_loadgen: prefill failed (%s:%u)\n",
                 target_host.c_str(), unsigned{target_port});
    return false;
  }

  const uint64_t cell_start = obs::now_ns();
  for (const auto& phase : spec.phases) {
    const uint64_t deadline =
        obs::now_ns() + phase.duration_ms * 1000000ull;
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back(run_phase_on_conn, clients[static_cast<size_t>(c)].get(),
                           std::cref(spec), std::cref(phase), zipf.get(),
                           pipeline, deadline,
                           /*seed=*/0x5eedull * (static_cast<uint64_t>(c) + 1),
                           &outcomes[static_cast<size_t>(c)]);
    }
    for (auto& t : threads) t.join();
  }
  const double seconds =
      static_cast<double>(obs::now_ns() - cell_start) / 1e9;

  clients.clear();  // close before the server tears down
  if (server) server->stop();

  NetCellRow cell;
  cell.scenario = spec.name;
  cell.ds = ds;
  cell.smr = smr;
  cell.workers = workers;
  cell.shards = spec.shards;
  cell.connections = connections;
  cell.pipeline_depth = pipeline;
  cell.seconds = seconds;
  obs::HistoSnapshot merged;
  std::vector<ConnRow> conn_rows;
  int failed = 0;
  for (auto& o : outcomes) {
    cell.totals.accumulate(o.stats);
    merged.merge(o.histo);
    conn_rows.push_back({o.stats, obs::summarize(o.histo)});
    if (o.failed) failed++;
  }
  cell.latency = obs::summarize(merged);
  // A connection that died mid-run is an error even if the server never
  // saw a malformed frame; surface it in the row's error column.
  cell.totals.protocol_errors += static_cast<uint64_t>(failed);

  std::printf("%-5s %-13s %4d %6d %5d %5d %8.3f %9.1f %9.1f %9.1f %7llu\n",
              ds.c_str(), smr.c_str(), workers, cell.shards, connections,
              pipeline,
              seconds > 0
                  ? static_cast<double>(cell.totals.ops) / seconds / 1e6
                  : 0.0,
              cell.latency.p50_us, cell.latency.p99_us, cell.latency.p999_us,
              static_cast<unsigned long long>(cell.totals.protocol_errors));
  std::fflush(stdout);
  out.write(net_row, cell);
  for (const auto& c : conn_rows) out.write(conn_row, cell, c);
  return failed < connections;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = apply_bench_cli(argc, argv);

  if (cli.list) {
    for (const auto& e : scenario_registry()) {
      std::printf("%-26s %s\n", e.name.c_str(), e.description.c_str());
    }
    return 0;
  }

  const std::string scenario =
      cli.scenario.empty() ? "uniform-mixed" : cli.scenario;
  const ScenarioEntry* entry = find_scenario(scenario);
  if (entry == nullptr) {
    std::fprintf(stderr, "bench_loadgen: unknown scenario '%s' (try --list)\n",
                 scenario.c_str());
    return 2;
  }
  const std::string host = bench_host("");
  const int port = bench_port(17979);
  const int connections = bench_connections(4);
  const int pipeline = bench_pipeline(8);
  const int workers = bench_net_workers(2);
  const int shards = bench_shard_list("1")[0];
  const auto ds_list = bench_ds_list("HMHT");
  const auto smrs = bench_smr_list();
  obs::JsonlFile out(runtime::env_str("POPSMR_BENCH_JSON", ""));
  const double time_scale = cli.short_mode ? 0.25 : 1.0;
  const uint64_t key_range = cli.short_mode ? 512 : 0;

  print_header(*entry);
  bool ok = true;
  if (!host.empty()) {
    // Remote mode: one cell against the given server; labels come from
    // the local flags (first list entries).
    ok = run_cell(scenario, ds_list[0], smrs[0], shards, workers,
                  connections, pipeline, host, port, time_scale, key_range,
                  out);
  } else {
    for (const auto& ds : ds_list) {
      for (const auto& smr : smrs) {
        ok = run_cell(scenario, ds, smr, shards, workers, connections,
                      pipeline, host, port, time_scale, key_range, out) &&
             ok;
      }
    }
  }
  return ok ? 0 : 1;
}
