// Bench-side spans for the traced run: recorded around calls into the
// library's public functions (no instrumentation inside src/), kept in memory,
// and written once at exit as Chrome trace_event JSON that Perfetto loads.
//
// A span carries a name, start, end, its parent's name, and an id shared by
// the spans of one request or task. All spans are recorded by the bench's
// single load thread, so the log needs no locking.
#ifndef BENCH_E2E_SPANS_H_
#define BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace cdmpp_bench {

using Clock = std::chrono::steady_clock;

class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point origin) : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }

  // A fresh id for a root span (request ids are the request sequence numbers;
  // everything else takes ids from here, above that range).
  uint64_t NewId() { return next_id_++; }

  // Records [start, end) when enabled. `parent` is null for a root span;
  // children reuse their root's id and lie inside its interval.
  void Add(const char* name, const char* parent, uint64_t id, Clock::time_point start,
           Clock::time_point end);

  // Writes {"traceEvents": [...]} with one complete ("X") event per span. Each
  // root span and its children share a track; roots that overlap in time get
  // separate tracks, so child spans always nest under their own root.
  void WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* parent;
    uint64_t id;
    int64_t start_ns;
    int64_t end_ns;
  };

  bool enabled_;
  Clock::time_point origin_;
  uint64_t next_id_ = uint64_t{1} << 40;
  std::vector<Span> spans_;
};

// RAII root-or-child span over a scope.
class ScopedBenchSpan {
 public:
  ScopedBenchSpan(SpanLog* log, const char* name, const char* parent, uint64_t id)
      : log_(log), name_(name), parent_(parent), id_(id), start_(Clock::now()) {}
  ~ScopedBenchSpan() { log_->Add(name_, parent_, id_, start_, Clock::now()); }
  ScopedBenchSpan(const ScopedBenchSpan&) = delete;
  ScopedBenchSpan& operator=(const ScopedBenchSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  const char* parent_;
  uint64_t id_;
  Clock::time_point start_;
};

}  // namespace cdmpp_bench

#endif  // BENCH_E2E_SPANS_H_
