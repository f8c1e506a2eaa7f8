#include "common.hpp"

#include <errno.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>

namespace perf {

namespace {

// Why each workload exists is recorded in README.md and BENCHMARK.json.
const std::vector<Workload> kWorkloads = {
    {"list-reads", "HML", 2048, 1024, {90, 0, 5, 5}, Dist::kUniform, false},
    {"hash-updates", "HMHT", 16384, 8192, {40, 50, 5, 5}, Dist::kUniform,
     false},
    {"stalled-tree", "DGT", 65536, 32768, {50, 0, 25, 25}, Dist::kUniform,
     true},
    {"wire-kv", "HMHT", 65536, 32768, {90, 10, 0, 0}, Dist::kZipf, false},
};

uint64_t splitmix(uint64_t& s) {
  uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() { return splitmix(s_); }
  uint64_t below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

// Independent generator per (seed, stream): stream ids never collide.
uint64_t sub_seed(uint64_t seed, uint64_t stream) {
  uint64_t s = seed * 0x100000001b3ull + stream;
  return splitmix(s);
}

std::vector<uint64_t> permutation(uint64_t n, uint64_t seed) {
  std::vector<uint64_t> p(n);
  for (uint64_t i = 0; i < n; ++i) p[i] = i;
  Rng rng(seed);
  for (uint64_t i = n - 1; i > 0; --i) std::swap(p[i], p[rng.below(i + 1)]);
  return p;
}

// Zipf over ranks by inverse CDF; ranks map to keys through a seeded
// permutation so hot keys scatter over buckets and shards.
class KeyPicker {
 public:
  KeyPicker(const Workload& w, uint64_t seed) : w_(w) {
    if (w.dist != Dist::kZipf) return;
    cdf_.resize(w.keys);
    double sum = 0;
    for (uint64_t i = 0; i < w.keys; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfTheta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
    rank_to_key_ = permutation(w.keys, seed);
  }

  uint64_t next(Rng& rng) const {
    if (w_.dist == Dist::kUniform) return rng.below(w_.keys);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.unit());
    const auto rank = static_cast<uint64_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(w_.keys - 1)));
    return rank_to_key_[rank];
  }

 private:
  const Workload& w_;
  std::vector<double> cdf_;
  std::vector<uint64_t> rank_to_key_;
};

// Every stream draws its keys from the whole key space, so writers race on
// the same keys. writes == false: gets only.
std::vector<uint32_t> make_stream(const Workload& w, const KeyPicker& keys,
                                  uint64_t seed, bool writes) {
  Rng rng(seed);
  std::vector<uint32_t> s(kStreamLen);
  for (auto& code : s) {
    const uint64_t key = keys.next(rng);
    const auto roll = static_cast<uint32_t>(rng.below(100));
    Op op = Op::kGet;
    if (writes) {
      if (roll < w.mix.put) {
        op = Op::kPut;
      } else if (roll < w.mix.put + w.mix.insert) {
        op = Op::kInsert;
      } else if (roll < w.mix.put + w.mix.insert + w.mix.remove) {
        op = Op::kRemove;
      }
    }
    code = encode_op(op, key);
  }
  return s;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs make_inputs(const Workload& w, uint64_t seed) {
  Inputs in;
  const KeyPicker keys(w, sub_seed(seed, 1));
  in.prefill = permutation(w.keys, sub_seed(seed, 2));
  in.prefill.resize(w.present);
  // The stalled reader (last worker) only gets.
  for (uint64_t i = 0; i < kWorkers; ++i) {
    const bool stalled_reader = w.stall && i == kWorkers - 1;
    in.workers.push_back(
        make_stream(w, keys, sub_seed(seed, 10 + i), !stalled_reader));
  }
  for (uint64_t i = 0; i < kClients; ++i) {
    in.clients.push_back(make_stream(w, keys, sub_seed(seed, 20 + i), true));
  }
  return in;
}

CpuPlan make_cpu_plan() {
  CpuPlan p;
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 4) return p;
  p.pin = true;
  p.coord = cpus[0];
  for (int i = 0; i < kWorkers; ++i) p.workers[i] = cpus[1 + i];
  p.server[0] = cpus[0];
  p.server[1] = cpus[1];
  p.clients[0] = cpus[2];
  p.clients[1] = cpus[3];
  return p;
}

void pin_self(const std::vector<int>& cpus, bool enabled) {
  if (!enabled) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// steady_clock is CLOCK_MONOTONIC on Linux.
void sleep_until_ns(uint64_t t) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t / 1000000000ull);
  ts.tv_nsec = static_cast<long>(t % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<uint64_t>& v, double p) {
  if (v.empty()) return 0;
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

}  // namespace perf
