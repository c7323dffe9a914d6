#include "src/exp/exp_common.h"

#include <cstdio>

namespace cdmpp {

namespace {

constexpr int kBenchNetworks = 30;
constexpr int kBenchSchedulesPerTask = 6;
constexpr uint64_t kBenchSeed = 2024;

}  // namespace

Dataset BuildBenchDataset(const std::vector<int>& device_ids) {
  DatasetOptions opts;
  opts.device_ids = device_ids;
  opts.schedules_per_task = kBenchSchedulesPerTask;
  opts.max_networks = kBenchNetworks;
  opts.noise_sigma = 0.03;
  opts.seed = kBenchSeed;
  return BuildDataset(opts);
}

Dataset BuildBenchDataset() { return BuildBenchDataset({}); }

PredictorConfig BenchPredictorConfig(int epochs, uint64_t seed) {
  PredictorConfig cfg;  // defaults are the auto-tuned values
  cfg.epochs = epochs;
  cfg.seed = seed;
  return cfg;
}

std::vector<int> Take(const std::vector<int>& indices, size_t n) {
  if (indices.size() <= n) {
    return indices;
  }
  return std::vector<int>(indices.begin(), indices.begin() + static_cast<long>(n));
}

void PrintBenchHeader(const std::string& id, const std::string& paper_ref,
                      const std::string& description) {
  std::printf("\n===============================================================\n");
  std::printf("%s — reproduces %s\n%s\n", id.c_str(), paper_ref.c_str(), description.c_str());
  std::printf("===============================================================\n");
  std::fflush(stdout);
}

}  // namespace cdmpp
