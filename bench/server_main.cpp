// popsmr_server: the standalone networked KV front end. Binds one
// (ds, smr, shards) ShardedMap behind the epoll server in src/net/ and
// serves the length-prefixed wire protocol until SIGINT/SIGTERM.
//
//   popsmr_server --port 17979 --ds HMHT --smr EpochPOP --shards 4
//                 --net-workers 2
//   POPSMR_BENCH_PORT=0 popsmr_server          # ephemeral port, printed
//
// The list-valued sweep knobs (--ds/--smr/--shards) are shared with the
// bench binaries; a server is one cell, so only the first entry of each
// list is used. On shutdown the served-op totals are printed to stdout
// (the loadgen emits the JSONL rows — the client side is where
// end-to-end latency is observable).
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "cli.hpp"
#include "net/server.hpp"
#include "runtime/env.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

}  // namespace

int main(int argc, char** argv) {
  using namespace pop;
  const bench::CliOptions cli = bench::apply_bench_cli(argc, argv);
  (void)cli;

  net::NetServerConfig cfg;
  cfg.ds = bench::bench_ds_list("HMHT")[0];
  cfg.smr = bench::bench_smr_list()[0];
  cfg.shards = bench::bench_shard_list("1")[0];
  cfg.workers = bench::bench_net_workers(2);
  cfg.host = bench::bench_host("127.0.0.1");
  cfg.port = static_cast<uint16_t>(bench::bench_port(17979));
  cfg.set.capacity = runtime::env_u64("POPSMR_BENCH_KEY_RANGE", 1 << 16);

  auto server = net::NetServer::create(cfg);
  if (!server) return 2;

  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  server->start();
  std::printf("popsmr_server: listening on %s:%u (ds=%s smr=%s shards=%d "
              "workers=%d)\n",
              cfg.host.c_str(), unsigned{server->port()}, cfg.ds.c_str(),
              cfg.smr.c_str(), cfg.shards, cfg.workers);
  std::fflush(stdout);

  while (!g_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server->stop();

  const auto s = server->total_stats();
  std::printf("popsmr_server: served %llu connections, %llu ops "
              "(gets=%llu puts=%llu dels=%llu pings=%llu errors=%llu, "
              "batches=%llu max_batch=%llu)\n",
              static_cast<unsigned long long>(server->connections_accepted()),
              static_cast<unsigned long long>(s.ops),
              static_cast<unsigned long long>(s.gets),
              static_cast<unsigned long long>(s.puts),
              static_cast<unsigned long long>(s.dels),
              static_cast<unsigned long long>(s.pings),
              static_cast<unsigned long long>(s.protocol_errors),
              static_cast<unsigned long long>(s.batches),
              static_cast<unsigned long long>(s.max_batch));
  return 0;
}
