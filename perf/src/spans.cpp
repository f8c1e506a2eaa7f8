#include "spans.hpp"

#include <algorithm>
#include <cstdio>

#include "common.hpp"

namespace perf {

uint64_t Spans::open(const char* name, int lane, uint64_t parent,
                     const char* label) {
  if (!on_) return 0;
  Span s;
  s.name = name;
  s.label = label;
  s.lane = lane;
  s.id = next_id();
  s.parent = parent;
  s.start_ns = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  open_[s.id] = spans_.size();
  spans_.push_back(s);
  return s.id;
}

void Spans::close(uint64_t id, uint64_t covered_ns) {
  if (!on_ || id == 0) return;
  const uint64_t t = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  const auto node = open_.extract(id);
  if (node.empty()) return;
  spans_[node.mapped()].end_ns = t;
  spans_[node.mapped()].covered_ns += covered_ns;
}

void Spans::add(std::vector<Span>&& local) {
  if (!on_) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.insert(spans_.end(), local.begin(), local.end());
}

bool Spans::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t epoch = UINT64_MAX;
  for (const auto& s : spans_) epoch = std::min(epoch, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[");
  const std::pair<int, const char*> lanes[] = {
      {kLaneCoord, "coordinator"}, {kLaneWorker0, "worker 0"},
      {kLaneWorker0 + 1, "worker 1"}, {kLaneWorker0 + 2, "worker 2"},
      {kLaneClient0, "client 0"}, {kLaneClient0 + 1, "client 1"},
      {kLaneProbe, "probe"}};
  bool first = true;
  for (const auto& [lane, label] : lanes) {
    std::fprintf(f,
                 "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", lane, label);
    first = false;
  }
  for (const auto& s : spans_) {
    if (s.end_ns < s.start_ns) continue;  // never closed
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"perf\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"label\":\"%s\"}}",
                 s.name, static_cast<double>(s.start_ns - epoch) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.lane,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 s.label ? s.label : "");
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

// Self time is a span's duration minus the part of its interval its
// children cover: the union of their intervals, since children on other
// lanes (a window's workers) run in parallel.
std::map<std::string, SelfTime> Spans::self_times() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const auto& s : spans_) {
    if (s.parent != 0 && !s.sampled && s.end_ns >= s.start_ns) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (const auto& s : spans_) {
    if (s.end_ns < s.start_ns || s.sampled) continue;
    const uint64_t dur = s.end_ns - s.start_ns;
    uint64_t covered = s.covered_ns;
    if (auto it = children.find(s.id); it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      uint64_t reach = s.start_ns;  // covered up to here
      for (auto [b, e] : iv) {
        b = std::max(b, reach);
        e = std::min(e, s.end_ns);
        if (e > b) {
          covered += e - b;
          reach = e;
        }
      }
    }
    auto& st = out[s.name];
    st.count += 1;
    st.total_ms += static_cast<double>(dur) / 1e6;
    st.self_ms += static_cast<double>(dur > covered ? dur - covered : 0) / 1e6;
  }
  return out;
}

}  // namespace perf
