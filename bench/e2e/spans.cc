#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace cdmpp_bench {

void SpanLog::Add(const char* name, const char* parent, uint64_t id, Clock::time_point start,
                  Clock::time_point end) {
  if (!enabled_) {
    return;
  }
  spans_.push_back(Span{name, parent, id,
                        std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_).count(),
                        std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_).count()});
}

void SpanLog::WriteChromeTrace(const std::string& path) const {
  // Root interval per id; a group's track is the first one free at its start.
  std::map<uint64_t, std::pair<int64_t, int64_t>> roots;
  for (const Span& s : spans_) {
    auto [it, inserted] = roots.try_emplace(s.id, s.start_ns, s.end_ns);
    if (!inserted) {
      it->second.first = std::min(it->second.first, s.start_ns);
      it->second.second = std::max(it->second.second, s.end_ns);
    }
  }
  std::vector<std::pair<int64_t, uint64_t>> by_start;
  by_start.reserve(roots.size());
  for (const auto& [id, interval] : roots) {
    by_start.emplace_back(interval.first, id);
  }
  std::sort(by_start.begin(), by_start.end());
  std::map<uint64_t, int> track_of;
  std::vector<int64_t> track_end;
  for (const auto& [start, id] : by_start) {
    size_t track = 0;
    while (track < track_end.size() && track_end[track] > start) {
      ++track;
    }
    if (track == track_end.size()) {
      track_end.push_back(0);
    }
    track_end[track] = roots[id].second;
    track_of[id] = static_cast<int>(track);
  }

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (size_t t = 0; t < track_end.size(); ++t) {
    std::fprintf(f,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %zu, "
                 "\"args\": {\"name\": \"bench track %zu\"}},\n",
                 t, t);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                 ", \"parent\": \"%s\"}}%s\n",
                 s.name, track_of[s.id], static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent != nullptr ? s.parent : "", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace cdmpp_bench
