#include "cli.hpp"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "ds/iset.hpp"
#include "obs/obs.hpp"
#include "runtime/env.hpp"
#include "workload/rows.hpp"

namespace pop::bench {

namespace {

void usage(const char* prog, int exit_code) {
  std::fprintf(
      stderr,
      "usage: %s [--threads N,N,..] [--smr NAME,..] [--ds NAME,..]\n"
      "          [--shards N,N,..] [--shard-hash splitmix|modulo]\n"
      "          [--duration-ms N] [--json PATH]\n"
      "          [--latency] [--hw-counters] [--trace PATH]\n"
      "          [--host ADDR] [--port N] [--connections N] [--pipeline N]\n"
      "          [--net-workers N]\n"
      "          [--scenario all|GLOB] [--short] [--list]\n"
      "          [--emit-schema] [--help]\n"
      "Value flags seed the matching POPSMR_BENCH_* env var; an already\n"
      "exported var wins over the flag (CI compatibility).\n",
      prog);
  std::exit(exit_code);
}

// setenv-without-override: the env layer keeps priority.
void seed_env(const char* var, const std::string& value) {
  ::setenv(var, value.c_str(), /*overwrite=*/0);
}

// Accepts "--flag value" and "--flag=value"; returns the value and
// advances *i past a detached one.
std::string flag_value(int argc, char** argv, int* i, const char* flag,
                       const char* prog) {
  const char* arg = argv[*i];
  const size_t flen = std::strlen(flag);
  if (arg[flen] == '=') return arg + flen + 1;
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s: %s needs a value\n", prog, flag);
    usage(prog, 2);
  }
  return argv[++(*i)];
}

bool matches(const char* arg, const char* flag) {
  const size_t flen = std::strlen(flag);
  return std::strncmp(arg, flag, flen) == 0 &&
         (arg[flen] == '\0' || arg[flen] == '=');
}

// Identifier flags (scheme / structure / scenario / hash names) travel
// into env vars, JSONL string fields, and factory lookups verbatim, so
// they are validated here at the parse boundary: names are restricted to
// [A-Za-z0-9_-], plus `extra` (',' where the flag takes a list, the glob
// characters for --scenario). Anything else (a stray quote, a path) is
// diagnosed on one line and rejected before it can seed an env var.
std::string checked_ident(std::string value, const char* flag,
                          const char* prog, const char* extra) {
  for (const char c : value) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    (c != '\0' && std::strchr(extra, c) != nullptr);
    if (!ok) {
      std::fprintf(stderr,
                   "%s: %s '%s' has invalid character '%c' (allowed: "
                   "A-Za-z0-9_-%s)\n",
                   prog, flag, value.c_str(), c, extra);
      std::exit(2);
    }
  }
  return value;
}

// Host names travel into connect()/bind() and JSONL labels: the ident
// charset plus '.' (dotted quads, DNS labels).
bool is_host(const std::string& value) {
  bool ok = !value.empty();
  for (const char c : value) {
    ok = ok && ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.');
  }
  return ok;
}

// Small non-negative integers (--port, --connections, ...): digits only,
// within [lo, hi]. "8x", "-1" or "" is not a silent 0. -1 when invalid.
long bounded_uint(const std::string& value, long lo, long hi) {
  bool digits = !value.empty() && value.size() <= 10;
  for (const char c : value) digits = digits && c >= '0' && c <= '9';
  const long v = digits ? std::strtol(value.c_str(), nullptr, 10) : -1;
  return v < lo || v > hi ? -1 : v;
}

// Malformed flag values are rejected on one line.
std::string checked_host(std::string value, const char* flag,
                         const char* prog) {
  if (!is_host(value)) {
    std::fprintf(stderr,
                 "%s: %s '%s' is not a host name (allowed: A-Za-z0-9_-.)\n",
                 prog, flag, value.c_str());
    std::exit(2);
  }
  return value;
}

std::string checked_uint(std::string value, const char* flag, const char* prog,
                         long lo, long hi) {
  if (bounded_uint(value, lo, hi) < 0) {
    std::fprintf(stderr, "%s: %s '%s' is not an integer in [%ld, %ld]\n", prog,
                 flag, value.c_str(), lo, hi);
    std::exit(2);
  }
  return value;
}

}  // namespace

CliOptions apply_bench_cli(int argc, char** argv) {
  CliOptions out;
  const char* prog = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (matches(arg, "--threads")) {
      seed_env("POPSMR_BENCH_THREADS",
               flag_value(argc, argv, &i, "--threads", prog));
    } else if (matches(arg, "--smr") || matches(arg, "--smrs")) {
      const char* flag = matches(arg, "--smrs") ? "--smrs" : "--smr";
      seed_env("POPSMR_BENCH_SMRS",
               checked_ident(flag_value(argc, argv, &i, flag, prog), flag,
                             prog, ","));
    } else if (matches(arg, "--ds")) {
      seed_env("POPSMR_BENCH_DS",
               checked_ident(flag_value(argc, argv, &i, "--ds", prog), "--ds",
                             prog, ","));
    } else if (matches(arg, "--shards")) {
      seed_env("POPSMR_BENCH_SHARDS",
               flag_value(argc, argv, &i, "--shards", prog));
    } else if (matches(arg, "--shard-hash")) {
      seed_env("POPSMR_SHARD_HASH",
               checked_ident(flag_value(argc, argv, &i, "--shard-hash", prog),
                             "--shard-hash", prog, ""));
    } else if (matches(arg, "--duration-ms")) {
      seed_env("POPSMR_BENCH_DURATION_MS",
               flag_value(argc, argv, &i, "--duration-ms", prog));
    } else if (matches(arg, "--json")) {
      seed_env("POPSMR_BENCH_JSON",
               flag_value(argc, argv, &i, "--json", prog));
    } else if (std::strcmp(arg, "--latency") == 0) {
      seed_env("POPSMR_OBS_LATENCY", "1");
    } else if (std::strcmp(arg, "--hw-counters") == 0) {
      seed_env("POPSMR_OBS_HW", "1");
    } else if (matches(arg, "--trace")) {
      // A path, not an identifier: no checked_ident.
      seed_env("POPSMR_TRACE", flag_value(argc, argv, &i, "--trace", prog));
    } else if (matches(arg, "--host")) {
      seed_env("POPSMR_BENCH_HOST",
               checked_host(flag_value(argc, argv, &i, "--host", prog),
                            "--host", prog));
    } else if (matches(arg, "--port")) {
      seed_env("POPSMR_BENCH_PORT",
               checked_uint(flag_value(argc, argv, &i, "--port", prog),
                            "--port", prog, 0, 65535));
    } else if (matches(arg, "--connections")) {
      seed_env("POPSMR_BENCH_CONNECTIONS",
               checked_uint(flag_value(argc, argv, &i, "--connections", prog),
                            "--connections", prog, 1, 4096));
    } else if (matches(arg, "--pipeline")) {
      seed_env("POPSMR_BENCH_PIPELINE",
               checked_uint(flag_value(argc, argv, &i, "--pipeline", prog),
                            "--pipeline", prog, 1, 4096));
    } else if (matches(arg, "--net-workers")) {
      seed_env("POPSMR_NET_WORKERS",
               checked_uint(flag_value(argc, argv, &i, "--net-workers", prog),
                            "--net-workers", prog, 1, 256));
    } else if (matches(arg, "--scenario")) {
      out.scenario =
          checked_ident(flag_value(argc, argv, &i, "--scenario", prog),
                        "--scenario", prog, "*?[]");
    } else if (std::strcmp(arg, "--short") == 0) {
      out.short_mode = true;
    } else if (std::strcmp(arg, "--list") == 0) {
      out.list = true;
    } else if (std::strcmp(arg, "--emit-schema") == 0) {
      std::fputs(workload::row_schema().c_str(), stdout);
      std::exit(0);
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      usage(prog, 0);
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", prog, arg);
      usage(prog, 2);
    }
  }
  // Resolve the observability channels now (env wins over the flags just
  // seeded, like every other knob), and register the end-of-process trace
  // dump once if tracing came up armed.
  obs::init_from_env();
  if (obs::trace_on()) {
    static bool dump_registered = false;
    if (!dump_registered) {
      dump_registered = true;
      std::atexit([] { obs::dump_trace(); });
    }
  }
  return out;
}

namespace {

std::vector<std::string> split_csv(const std::string& raw) {
  std::vector<std::string> out;
  std::stringstream ss(raw);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

// Counts (threads, shards): tokens without a number (after optional
// whitespace and sign) and values below 1 are dropped.
std::vector<int> parse_count_list(const std::string& raw) {
  std::vector<int> out;
  for (const auto& tok : split_csv(raw)) {
    const std::size_t i = tok.find_first_not_of(" \t");
    if (i == std::string::npos) continue;
    const std::size_t d =
        i + ((tok[i] == '-' || tok[i] == '+') ? 1 : 0);
    if (d >= tok.size() || !std::isdigit(static_cast<unsigned char>(tok[d]))) {
      continue;  // no number: drop, don't parse to a silent 0
    }
    // strtol, not atoi: out-of-int-range input must saturate instead of
    // being undefined behavior.
    const long v = std::strtol(tok.c_str() + i, nullptr, 10);
    if (v < 1) continue;
    out.push_back(v > INT_MAX ? INT_MAX : static_cast<int>(v));
  }
  return out;
}

// The one parser behind every POPSMR_BENCH_* count-list knob; a value
// that leaves nothing falls back to `fallback`.
std::vector<int> env_count_list(const char* var, const std::string& fallback) {
  auto out = parse_count_list(runtime::env_str(var, fallback));
  return out.empty() ? parse_count_list(fallback) : out;
}

// A name list checked against the catalogue before any cell runs: a typo
// must not abort a sweep halfway, after earlier cells wrote their rows.
std::vector<std::string> env_name_list(const char* var,
                                       const std::string& fallback,
                                       const std::vector<std::string>& known,
                                       const char* what) {
  auto out = split_csv(runtime::env_str(var, fallback));
  if (out.empty()) out = split_csv(fallback);
  if (out.empty()) out = known;
  for (const auto& name : out) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    std::string names;
    for (const auto& k : known) names += (names.empty() ? "" : ", ") + k;
    std::fprintf(stderr, "popsmr bench: unknown %s '%s' in %s (known: %s)\n",
                 what, name.c_str(), var, names.c_str());
    std::exit(2);
  }
  return out;
}

}  // namespace

std::vector<int> bench_thread_list(const std::string& fallback) {
  return env_count_list("POPSMR_BENCH_THREADS", fallback);
}

std::vector<std::string> bench_smr_list(const std::string& fallback) {
  return env_name_list("POPSMR_BENCH_SMRS", fallback, ds::all_smr_names(),
                       "scheme");
}

std::vector<std::string> bench_ds_list(const std::string& fallback) {
  return env_name_list("POPSMR_BENCH_DS", fallback, ds::all_ds_names(),
                       "data structure");
}

std::vector<int> bench_shard_list(const std::string& fallback) {
  return env_count_list("POPSMR_BENCH_SHARDS", fallback);
}

uint64_t bench_duration_ms(uint64_t fallback) {
  return runtime::env_u64("POPSMR_BENCH_DURATION_MS", fallback);
}

namespace {

// Bounded positive-int env knob with a one-line diagnosis on garbage
// (the CLI already validates the flag path; this guards direct exports).
int env_bounded_int(const char* var, int fallback, int lo, int hi) {
  const std::string raw = runtime::env_str(var, "");
  if (raw.empty()) return fallback;
  const long v = bounded_uint(raw, lo, hi);
  if (v < 0) {
    std::fprintf(stderr,
                 "popsmr bench: %s='%s' is not an integer in [%d, %d]; "
                 "using %d\n",
                 var, raw.c_str(), lo, hi, fallback);
    return fallback;
  }
  return static_cast<int>(v);
}

}  // namespace

std::string bench_host(const std::string& fallback) {
  const std::string raw = runtime::env_str("POPSMR_BENCH_HOST", "");
  if (raw.empty()) return fallback;
  if (!is_host(raw)) {
    std::fprintf(stderr,
                 "popsmr bench: POPSMR_BENCH_HOST='%s' is not a host name "
                 "(allowed: A-Za-z0-9_-.); using %s\n",
                 raw.c_str(), fallback.empty() ? "<none>" : fallback.c_str());
    return fallback;
  }
  return raw;
}

int bench_port(int fallback) {
  return env_bounded_int("POPSMR_BENCH_PORT", fallback, 0, 65535);
}

int bench_connections(int fallback) {
  return env_bounded_int("POPSMR_BENCH_CONNECTIONS", fallback, 1, 4096);
}

int bench_pipeline(int fallback) {
  return env_bounded_int("POPSMR_BENCH_PIPELINE", fallback, 1, 4096);
}

int bench_net_workers(int fallback) {
  return env_bounded_int("POPSMR_NET_WORKERS", fallback, 1, 256);
}

}  // namespace pop::bench
