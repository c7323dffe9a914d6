#include "src/search/population.h"

#include <algorithm>
#include <cstdint>

#include "src/support/check.h"
#include "src/support/parallel_for.h"

namespace cdmpp {

namespace {

// About two chunks per pool thread: a round is tens of candidates at a few
// microseconds each, so more chunks would add claim traffic without
// balancing the load any better.
constexpr int64_t kChunksPerThread = 2;

}  // namespace

void ExtractPopulation(const Task& task, const std::vector<ScheduleDesc>& schedules,
                       std::vector<CompactAst>* asts, std::vector<uint64_t>* hashes) {
  CDMPP_CHECK(asts != nullptr && hashes != nullptr);
  const int64_t n = static_cast<int64_t>(schedules.size());
  asts->resize(schedules.size());
  hashes->resize(schedules.size());
  const int64_t chunks = ThreadPool::Global().num_threads() * kChunksPerThread;
  const int64_t grain = std::max<int64_t>(1, (n + chunks - 1) / chunks);
  ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const size_t c = static_cast<size_t>(i);
      (*asts)[c] = ExtractCompactAst(GenerateProgram(task, schedules[c]));
      (*hashes)[c] = (*asts)[c].Hash();
    }
  });
}

double MeasureSchedule(const Task& task, const ScheduleDesc& sched, const DeviceSpec& device) {
  return SimulateLatencyDeterministic(GenerateProgram(task, sched), device);
}

}  // namespace cdmpp
