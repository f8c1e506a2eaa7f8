// In-memory spans for the traced run: name, start, end and the span that
// caused it, recorded around popsmr_perf's own calls into each layer and
// written once, at exit, as Chrome trace-event JSON (Perfetto opens it).
//
// Ops are too many to keep: workers sample one op in kOpSampleEvery into
// the file and fold every op's duration into the enclosing worker span's
// covered_ns, so self time (span minus children) stays exact.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perf {

inline constexpr uint64_t kOpSampleEvery = 256;

// Chrome "tid" lanes, one per role.
inline constexpr int kLaneCoord = 0;
inline constexpr int kLaneWorker0 = 1;    // + worker index
inline constexpr int kLaneClient0 = 11;   // + client index
inline constexpr int kLaneProbe = 21;

struct Span {
  const char* name = "";
  const char* label = nullptr;  // which map or cell, written to args
  int lane = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  // Exact time of children that were only sampled into the file.
  uint64_t covered_ns = 0;
  // A 1-in-kOpSampleEvery sample; its parent's covered_ns already counts it.
  bool sampled = false;
};

struct SelfTime {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  bool on() const { return on_; }
  uint64_t next_id() { return next_.fetch_add(1, std::memory_order_relaxed); }

  // Opens a span now; returns its id (0 when tracing is off).
  uint64_t open(const char* name, int lane, uint64_t parent,
                const char* label = nullptr);
  void close(uint64_t id, uint64_t covered_ns = 0);
  // Merges spans a worker recorded locally (no lock on its hot path).
  void add(std::vector<Span>&& local);

  bool write_chrome(const std::string& path) const;
  std::map<std::string, SelfTime> self_times() const;

  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

 private:
  const bool on_;
  std::atomic<uint64_t> next_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;                   // guarded by mu_
  std::unordered_map<uint64_t, size_t> open_;  // guarded by mu_
};

// Opens on construction, closes on destruction.
class SpanScope {
 public:
  SpanScope(Spans& s, const char* name, int lane, uint64_t parent,
            const char* label = nullptr)
      : s_(s), id_(s.open(name, lane, parent, label)) {}
  ~SpanScope() { s_.close(id_); }
  uint64_t id() const { return id_; }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& s_;
  uint64_t id_;
};

}  // namespace perf
