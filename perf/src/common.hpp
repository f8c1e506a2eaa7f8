// Shared vocabulary of popsmr_perf: the workload table, seeded input
// generation, the CPU plan, and the metric sink.
//
// Inputs are made here and nowhere else, from the --seed alone: every
// worker and client gets a pre-generated stream of kStreamLen ops that it
// replays cyclically, and every value a stream writes encodes its key, so
// any get hit can be checked against the key it asked for.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perf {

using pop::obs::now_ns;  // steady clock, ns

// ---- workloads ---------------------------------------------------------------

enum class Dist { kUniform, kZipf };

struct Mix {
  uint32_t get, put, insert, remove;  // percent, sums to 100
};

struct Workload {
  const char* name;
  const char* ds;
  uint64_t keys;     // key space [0, keys)
  uint64_t present;  // prefilled keys (a seeded random subset)
  Mix mix;
  Dist dist;
  // Third worker runs gets only and, in every timed phase, parks inside
  // an op for kParkNs of every kParkPeriodNs, from kParkFromNs into each
  // period: the paper's stalled reader.
  bool stall;
};

inline constexpr double kZipfTheta = 0.99;
inline constexpr uint64_t kParkPeriodNs = 1'000'000'000;
inline constexpr uint64_t kParkFromNs = 100'000'000;
inline constexpr uint64_t kParkNs = 300'000'000;

const Workload* find_workload(const std::string& name);

// The four schemes every workload compares; NR is only a reference cell.
inline const char* const kSchemes[] = {"HP", "HazardPtrPOP", "EBR",
                                       "EpochPOP"};
inline constexpr int kNumSchemes = 4;
inline constexpr int kWorkers = 3;   // in-process closed-loop workers
inline constexpr int kClients = 2;   // wire connections
inline constexpr int kPipeline = 8;  // requests per client batch
inline constexpr int kServerShards = 2;
inline constexpr int kServerWorkers = 2;
inline constexpr double kWireRateOps = 150000.0;  // open-loop offered load
inline constexpr const char* kWireScheme = "EpochPOP";

// ---- op streams ----------------------------------------------------------------

enum class Op : uint32_t { kGet = 0, kPut = 1, kInsert = 2, kRemove = 3 };

inline constexpr uint32_t kStreamBits = 20;
inline constexpr uint64_t kStreamLen = uint64_t{1} << kStreamBits;
inline constexpr uint64_t kStreamMask = kStreamLen - 1;

// One op in 32 bits: kind in the top two, key below.
inline uint32_t encode_op(Op op, uint64_t key) {
  return (static_cast<uint32_t>(op) << 30) | static_cast<uint32_t>(key);
}
inline Op op_of(uint32_t code) { return static_cast<Op>(code >> 30); }
inline uint64_t key_of(uint32_t code) { return code & ((1u << 30) - 1); }

// Values: the key in the low 32 bits, a writer tag above. IKV::insert
// stores value == key, which is tag 0 and checks the same way.
inline uint64_t encode_value(uint64_t key, uint64_t tag) {
  return key | (tag << 32);
}
inline bool value_matches(uint64_t key, uint64_t val) {
  return (val & 0xffffffffu) == key;
}

struct Inputs {
  std::vector<uint64_t> prefill;  // keys to insert before a cell, in order
  std::vector<std::vector<uint32_t>> workers;  // one stream per worker
  std::vector<std::vector<uint32_t>> clients;  // one stream per connection
};

Inputs make_inputs(const Workload& w, uint64_t seed);

// ---- CPU plan --------------------------------------------------------------------

// With four or more CPUs: the coordinator and sampler sleep on cpus[0],
// in-process workers run on cpus[1..3], the server's epoll workers on
// cpus[0..1] and the two client connections on cpus[2..3]. With fewer
// CPUs nothing is pinned.
struct CpuPlan {
  bool pin = false;
  int coord = 0;
  int workers[kWorkers] = {};
  int server[kServerWorkers] = {};
  int clients[kClients] = {};
};

CpuPlan make_cpu_plan();
void pin_self(const std::vector<int>& cpus, bool enabled);

// Sleeps until now_ns() reads at least t.
void sleep_until_ns(uint64_t t);

// ---- metrics ---------------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

double mean(const std::vector<double>& v);
double median(std::vector<double> v);
// Exact percentile (nearest rank) of raw samples; p in [0, 100].
double percentile(std::vector<uint64_t>& v, double p);

}  // namespace perf
