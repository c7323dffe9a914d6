// Dataset construction: model zoo -> deduplicated tasks -> sampled schedules
// -> tensor programs -> compact ASTs -> simulated per-device latencies.
// This is the synthetic stand-in for Tenset plus the authors' own profiling
// (paper §7.1, Table 2).
//
// BuildDataset lowers each program once: schedules are sampled serially, one
// ParallelFor over programs lowers each, extracts its AST and labels it on
// every device, and the measurement noise is then drawn serially in sample
// order. The result is bitwise the same for every thread-pool size.
#ifndef SRC_DATASET_DATASET_H_
#define SRC_DATASET_DATASET_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/ast/compact_ast.h"
#include "src/dataset/model_zoo.h"
#include "src/device/device.h"
#include "src/support/rng.h"
#include "src/tir/schedule.h"

namespace cdmpp {

// One scheduled tensor program shared by all devices (the paper assumes the
// same program set runs everywhere for sampling purposes, §5.3).
struct ProgramRecord {
  int task_id = -1;
  ScheduleDesc schedule;
  CompactAst ast;
};

// One measurement record: a (program, device) pair with ground-truth latency.
struct Sample {
  int program_index = -1;
  int device_id = -1;
  double latency_seconds = 0.0;
};

struct TaskInfo {
  Task task;                    // task.id set to its index
  std::vector<int> model_ids;   // networks containing this task
  std::vector<int> program_indices;  // programs generated for this task
};

struct Dataset {
  std::vector<NetworkDef> networks;  // ops' task.id fields resolved to tasks[]
  std::vector<TaskInfo> tasks;
  std::vector<ProgramRecord> programs;
  std::vector<Sample> samples;

  const Task& TaskOfProgram(int program_index) const;
  // True if the task of this program appears in any of the given models.
  bool ProgramInModels(int program_index, const std::vector<int>& model_ids) const;
  int ModelIdByName(const std::string& name) const;  // -1 if absent
};

struct DatasetOptions {
  std::vector<int> device_ids;    // devices to simulate; default: all nine
  int schedules_per_task = 8;
  double noise_sigma = 0.03;
  uint64_t seed = 42;
  int max_networks = -1;          // cap zoo size for quick tests (-1 = all)
};

// Builds the dataset deterministically from the options. `samples` is
// device-major: sample d * programs.size() + p is program p on the d-th
// device of `opts.device_ids` (registry order when empty).
Dataset BuildDataset(const DatasetOptions& opts);

// Sample-index splits. Hold-out model samples are excluded from all three
// sets and returned separately (paper §7.1: S_hold with 3 networks).
struct SplitIndices {
  std::vector<int> train;
  std::vector<int> valid;
  std::vector<int> test;
  std::vector<int> holdout;
};

// Random 8:1:1 split of samples restricted to `device_ids` (empty = all).
// Samples whose task occurs in a hold-out model go to `holdout`.
SplitIndices SplitDataset(const Dataset& ds, const std::vector<int>& device_ids,
                          const std::vector<int>& holdout_model_ids, Rng* rng,
                          double train_frac = 0.8, double valid_frac = 0.1);

// All sample indices on `device_id` whose task belongs to `model_id`.
std::vector<int> SamplesOfModelOnDevice(const Dataset& ds, int model_id, int device_id);

// All sample indices on `device_id`.
std::vector<int> SamplesOnDevice(const Dataset& ds, int device_id);

}  // namespace cdmpp

#endif  // SRC_DATASET_DATASET_H_
