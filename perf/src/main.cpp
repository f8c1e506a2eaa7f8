// popsmr_perf: runs one workload of the benchmark and prints, as the last
// line of stdout, {"correct", "attempted", "failed", "metrics"}.
//
//   popsmr_perf --workload hash-updates --seed 1 --seconds 24 --trace 0
//
// --trace 0  end-to-end run: tracing off. Sets up and tears down
//            kSetups - 1 sets of cells (every scheme's in-process cell and
//            the wire cell), one at a time, then sets up the measured set
//            and runs kRounds rounds of one window per in-process cell
//            (rotated order). setup_s is the median of all kSetups set-ups.
// --trace 1  per-layer run: one window per scheme, untraced and then with
//            every op timed, an NR reference cell, an open- and a
//            closed-loop wire window and the single-thread probes; also
//            writes <out>/<workload>.layers.json and the Chrome trace
//            <out>/<workload>.trace.json.
// --smoke    one round of 0.3-s windows and short probes (ctest).
//
// Per-window values go to stderr as they are measured.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cells.hpp"
#include "obs/obs.hpp"
#include "runtime/proc_stats.hpp"

namespace perf {

namespace {

// Rounds of an end-to-end run; the untimed warm-up that starts every
// window; and the set-ups setup_s is the median of.
constexpr int kRounds = 3;
constexpr double kWarmupS = 0.5;
constexpr int kSetups = 7;
// The NR reference cell never frees: stop it after this many retires.
constexpr uint64_t kNrLeakBudget = uint64_t{1} << 19;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 24;
  bool trace = false;
  bool smoke = false;
  std::string out = "perf/out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "popsmr_perf: %s\nusage: popsmr_perf --workload NAME [--seed N]"
               " [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + f).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (f == "--workload") {
      a.workload = v;
    } else if (f == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (f == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (f == "--trace") {
      a.trace = std::strtol(v, &end, 10) != 0;
    } else if (f == "--out") {
      a.out = v;
    } else {
      usage(("unknown flag " + f).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      usage(("bad value for " + f).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }
double ratio(uint64_t num, uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

bool is_pop(const std::string& scheme) {
  return scheme == "HazardPtrPOP" || scheme == "EpochPOP";
}

// Every timed window, in process or on the wire, is window_s long: the
// end-to-end run's timed seconds split over its kRounds x kNumSchemes
// windows.
struct Timing {
  double warmup_s;
  double window_s;
};

Timing timing(const Args& a) {
  if (a.smoke) return {0.05, 0.3};
  return {kWarmupS, a.seconds / (kRounds * kNumSchemes)};
}

struct Cells {
  std::vector<std::unique_ptr<InprocCell>> inproc;
  std::unique_ptr<WireCell> wire;

  double setup_s() const {
    double s = wire->setup().total();
    for (const auto& c : inproc) s += c->setup().total();
    return s;
  }
  Checks finish() {
    Checks c;
    for (auto& cell : inproc) c.add(cell->finish());
    c.add(wire->finish());
    return c;
  }
};

Cells build_cells(const Workload& w, const Inputs& in, Workers& workers,
                  const CpuPlan& cpus, Spans& spans, uint64_t parent) {
  Cells c;
  for (const char* s : kSchemes) {
    c.inproc.push_back(
        std::make_unique<InprocCell>(w, in, s, workers, spans, parent));
  }
  c.wire = std::make_unique<WireCell>(w, in, cpus, spans, parent);
  return c;
}

Metrics end_to_end(const Workload& w, const Inputs& in, const Args& a,
                   Workers& workers, const CpuPlan& cpus, Spans& spans,
                   Checks& checks) {
  const int rounds = a.smoke ? 1 : kRounds;
  const Timing t = timing(a);
  // Each set is torn down before the next is built, so no two sets are
  // ever alive together and rss_peak_mib is one set's footprint.
  std::vector<double> setups;
  for (int i = 1; i < (a.smoke ? 2 : kSetups); ++i) {
    Cells more = build_cells(w, in, workers, cpus, spans, 0);
    setups.push_back(more.setup_s());
    checks.add(more.finish());
  }
  Cells cells = build_cells(w, in, workers, cpus, spans, 0);
  setups.push_back(cells.setup_s());

  // Per window: the mean of the 10-ms samples of retired - freed. The
  // windows' throughput and peaks only go to stderr: they move with the
  // host (see README.md), so they are per-layer metrics.
  std::vector<double> unreclaimed[kNumSchemes];
  for (int r = 0; r < rounds; ++r) {
    for (int j = 0; j < kNumSchemes; ++j) {
      const int s = (r + j) % kNumSchemes;  // rotate who runs first
      WindowPlan plan;
      plan.warmup_s = t.warmup_s;
      plan.untraced_s = t.window_s;
      const WindowResult res = cells.inproc[s]->run_window(plan);
      const std::vector<double> u(res.unreclaimed.begin(),
                                  res.unreclaimed.end());
      unreclaimed[s].push_back(mean(u));
      std::fprintf(stderr, "perf: %s round %d %-12s %8.4f Mops %8.0f peak "
                   "%8.1f mean unreclaimed\n", w.name, r, kSchemes[s],
                   res.mops_untraced,
                   u.empty() ? 0 : *std::max_element(u.begin(), u.end()),
                   unreclaimed[s].back());
    }
  }
  checks.add(cells.finish());
  for (double s : setups) {
    std::fprintf(stderr, "perf: %s setup %.6f s\n", w.name, s);
  }

  Metrics m;
  for (int s = 0; s < kNumSchemes; ++s) {
    if (is_pop(kSchemes[s])) {
      m[std::string("unreclaimed_mean.") + kSchemes[s]] = {
          median(unreclaimed[s]), "nodes"};
    }
  }
  m["setup_s"] = {median(setups), "s"};
  m["rss_peak_mib"] = {
      static_cast<double>(pop::runtime::vm_hwm_kib()) / 1024, "MiB"};
  return m;
}

Metrics per_layer(const Workload& w, const Inputs& in, const Args& a,
                  Workers& workers, const CpuPlan& cpus, Spans& spans,
                  Checks& checks) {
  const Timing t = timing(a);
  SpanScope run(spans, w.name, kLaneCoord, 0);
  Cells cells = build_cells(w, in, workers, cpus, spans, run.id());
  Metrics m;
  m["setup.build_s"] = {cells.wire->setup().build_s, "s"};
  m["setup.prefill_s"] = {cells.wire->setup().prefill_s, "s"};
  for (const auto& c : cells.inproc) {
    m["setup.build_s"].value += c->setup().build_s;
    m["setup.prefill_s"].value += c->setup().prefill_s;
  }

  std::vector<double> overhead;
  WindowResult res[kNumSchemes];
  for (int s = 0; s < kNumSchemes; ++s) {
    WindowPlan plan;
    plan.warmup_s = t.warmup_s;
    plan.untraced_s = t.window_s;
    plan.traced_s = t.window_s;
    res[s] = cells.inproc[s]->run_window(plan);
    overhead.push_back(100 * (1 - ratio(res[s].mops_traced, res[s].mops_untraced)));
  }
  WindowResult nr;
  {
    InprocCell cell(w, in, "NR", workers, spans, run.id());
    WindowPlan plan;
    plan.warmup_s = t.warmup_s;
    plan.traced_s = a.smoke ? t.window_s : 0.5;
    plan.leak_budget = kNrLeakBudget;
    nr = cell.run_window(plan);
    checks.add(cell.finish());
  }
  const double nr_get_ns = ratio(nr.get_ns, nr.gets);
  m["ds.get_ns.NR"] = {nr_get_ns, "ns"};

  for (int s = 0; s < kNumSchemes; ++s) {
    const std::string name = kSchemes[s];
    const WindowResult& r = res[s];
    const double kop = static_cast<double>(r.ops) / 1e3;
    const double get_ns = ratio(r.get_ns, r.gets);
    m["mops." + name] = {r.mops_untraced, "Mops"};
    m["ds.get_ns." + name] = {get_ns, "ns"};
    m["ds.update_ns." + name] = {ratio(r.update_ns, r.updates), "ns"};
    m["ds.op_ns_p999." + name] = {static_cast<double>(r.op_hist.percentile(99.9)), "ns"};
    m["ds.read_overhead_ns." + name] = {get_ns - nr_get_ns, "ns"};
    m["smr.retired_per_kop." + name] = {ratio(static_cast<double>(r.smr.retired), kop), "1/kop"};
    m["smr.scans_per_kop." + name] = {ratio(static_cast<double>(r.smr.scans), kop), "1/kop"};
    m["smr.freed_per_scan." + name] = {ratio(r.smr.freed, r.smr.scans), "nodes"};
    m["smr.sweep_us_p50." + name] = {static_cast<double>(r.sweep.percentile(50)) / 1e3, "us"};
    m["smr.sweep_us_p99." + name] = {static_cast<double>(r.sweep.percentile(99)) / 1e3, "us"};
    m["runtime.remote_free_frac." + name] = {ratio(r.pool.remote_frees, r.pool.freed_blocks), "ratio"};
    m["runtime.blocks_per_splice." + name] = {ratio(r.pool.remote_frees, r.pool.remote_splices), "blocks"};
    m["ledger.residual_pct." + name] = {100 * (1 - ratio(static_cast<double>(r.span_ns), kWorkers * r.traced_wall_s * 1e9)), "%"};
    m["smr.unreclaimed_peak." + name] = {
        r.unreclaimed.empty() ? 0.0 : static_cast<double>(*std::max_element(
                                          r.unreclaimed.begin(), r.unreclaimed.end())),
        "nodes"};
    if (is_pop(name)) {
      m["core.signals_per_kop." + name] = {ratio(static_cast<double>(r.smr.signals_sent), kop), "1/kop"};
    }
    if (name == "HazardPtrPOP") {
      m["core.ping_wave_us_p50." + name] = {static_cast<double>(r.ping_wave.percentile(50)) / 1e3, "us"};
      m["core.ping_wave_us_p99." + name] = {static_cast<double>(r.ping_wave.percentile(99)) / 1e3, "us"};
    }
    if (name == "EpochPOP") {
      m["core.epoch_free_frac." + name] = {ratio(r.smr.ebr_frees, r.smr.ebr_frees + r.smr.pop_frees), "ratio"};
    }
  }

  OpenLoopResult open = cells.wire->run_open(t.warmup_s, t.window_s, true);
  m["wire_p50_us"] = {percentile(open.lat_ns, 50) / 1e3, "us"};
  m["wire_kops"] = {cells.wire->run_closed(t.warmup_s, t.window_s), "kops"};
  checks.add(cells.finish());
  m["ds.size_deficit"] = {static_cast<double>(checks.size_deficit), "keys"};
  const double rtt_p50 = percentile(open.rtt_ns, 50) / 1e3;
  m["net.rtt_us_p50"] = {rtt_p50, "us"};
  m["net.rtt_us_p99"] = {percentile(open.rtt_ns, 99) / 1e3, "us"};
  m["net.rtt_us_p999"] = {percentile(open.rtt_ns, 99.9) / 1e3, "us"};
  m["net.gen_lag_us_p99"] = {percentile(open.lag_ns, 99) / 1e3, "us"};
  m["net.server_batch_us_p50"] = {open.server_batch_us_p50, "us"};
  m["net.server_batch_us_p99"] = {open.server_batch_us_p99, "us"};
  m["net.wire_share"] = {1 - ratio(open.server_batch_us_p50, rtt_p50), "ratio"};
  m["net.ops_per_batch"] = {open.ops_per_batch, "ops"};
  m["service.shard_skew"] = {cells.wire->shard_skew(), "ratio"};

  run_probes(a.smoke ? 0.05 : 1.0, cpus, m, spans, run.id());
  m["trace.overhead_pct"] = {median(overhead), "%"};
  m["error_rate"] = {ratio(checks.failed, checks.attempted), "ratio"};
  return m;
}

void print_metrics(std::FILE* f, const Metrics& m) {
  std::fprintf(f, "{");
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                 first ? "" : ", ", name.c_str(),
                 std::isfinite(metric.value) ? metric.value : 0.0,
                 metric.unit.c_str());
    first = false;
  }
  std::fprintf(f, "}");
}

bool write_layers(const std::string& path, const Args& a, const Metrics& m,
                  const Spans& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"metrics\": ",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed));
  print_metrics(f, m);
  std::fprintf(f, ",\n \"self_time_ms\": {");
  bool first = true;
  for (const auto& [name, st] : spans.self_times()) {
    std::fprintf(f, "%s\n  \"%s\": {\"count\": %llu, \"total_ms\": %.3f, "
                 "\"self_ms\": %.3f}", first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(st.count), st.total_ms,
                 st.self_ms);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int run(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const Workload* w = find_workload(a.workload);
  if (!w) usage(("unknown workload " + a.workload).c_str());

  const CpuPlan cpus = make_cpu_plan();
  pin_self({cpus.coord}, cpus.pin);
  pop::obs::set_latency(false);
  const Inputs in = make_inputs(*w, a.seed);

  Spans spans(a.trace);
  Workers workers(cpus);
  Checks checks;
  const Metrics m =
      a.trace ? per_layer(*w, in, a, workers, cpus, spans, checks)
              : end_to_end(*w, in, a, workers, cpus, spans, checks);
  if (a.trace) {
    const std::string base = a.out + "/" + a.workload;
    if (!spans.write_chrome(base + ".trace.json") ||
        !write_layers(base + ".layers.json", a, m, spans)) {
      std::fprintf(stderr, "popsmr_perf: cannot write %s.*.json\n",
                   base.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  print_metrics(stdout, m);
  std::printf("}\n");
  return 0;
}

}  // namespace perf

int main(int argc, char** argv) { return perf::run(argc, argv); }
