// Shared setup for the benchmark harnesses that regenerate the paper's
// tables and figures: a common dataset configuration, predictor configs, and
// small helpers. Each figure builds its dataset deterministically from the
// same seed, so results are comparable across figures.
#ifndef SRC_EXP_EXP_COMMON_H_
#define SRC_EXP_EXP_COMMON_H_

#include <string>

#include "src/core/predictor.h"
#include "src/dataset/dataset.h"
#include "src/support/table.h"

namespace cdmpp {

// The evaluation dataset: all nine Table-2 devices, a representative slice of
// the model zoo, several schedules per task. Scaled down from Tenset's 50M
// records to run on one CPU core: 30 networks, 6 schedules per task, and
// log-normal measurement noise of sigma 0.03.
Dataset BuildBenchDataset();

// Like BuildBenchDataset but restricted to the given devices (faster when a
// bench touches few devices).
Dataset BuildBenchDataset(const std::vector<int>& device_ids);

// The default predictor configuration used across benches (the auto-tuned
// defaults of PredictorConfig) with a bench-specific epoch budget.
PredictorConfig BenchPredictorConfig(int epochs, uint64_t seed = 7);

// Truncates an index list to at most n entries (keeps determinism: prefix).
std::vector<int> Take(const std::vector<int>& indices, size_t n);

// Prints a one-line bench header so concatenated bench logs stay readable.
void PrintBenchHeader(const std::string& id, const std::string& paper_ref,
                      const std::string& description);

}  // namespace cdmpp

#endif  // SRC_EXP_EXP_COMMON_H_
