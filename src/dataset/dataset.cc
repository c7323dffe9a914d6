#include "src/dataset/dataset.h"

#include <algorithm>

#include "src/device/simulator.h"
#include "src/support/check.h"
#include "src/support/parallel_for.h"

namespace cdmpp {

namespace {

// A stable signature for task deduplication across networks.
std::string TaskSignature(const Task& task) {
  std::string sig = OpKindName(task.kind);
  for (int64_t d : task.dims) {
    sig += "_" + std::to_string(d);
  }
  sig += task.fused_relu ? "_relu" : "";
  return sig;
}

}  // namespace

const Task& Dataset::TaskOfProgram(int program_index) const {
  CDMPP_CHECK(program_index >= 0 && program_index < static_cast<int>(programs.size()));
  return tasks[static_cast<size_t>(programs[static_cast<size_t>(program_index)].task_id)].task;
}

bool Dataset::ProgramInModels(int program_index, const std::vector<int>& model_ids) const {
  int task_id = programs[static_cast<size_t>(program_index)].task_id;
  const TaskInfo& info = tasks[static_cast<size_t>(task_id)];
  for (int m : info.model_ids) {
    if (std::find(model_ids.begin(), model_ids.end(), m) != model_ids.end()) {
      return true;
    }
  }
  return false;
}

int Dataset::ModelIdByName(const std::string& name) const {
  for (const NetworkDef& net : networks) {
    if (net.name == name) {
      return net.id;
    }
  }
  return -1;
}

Dataset BuildDataset(const DatasetOptions& opts) {
  Dataset ds;
  ds.networks = BuildModelZoo();
  if (opts.max_networks > 0 && opts.max_networks < static_cast<int>(ds.networks.size())) {
    // Keep a spread of families plus the hold-out networks.
    std::vector<NetworkDef> kept;
    std::vector<std::string> holdouts = HoldoutNetworkNames();
    for (NetworkDef& net : ds.networks) {
      bool is_holdout =
          std::find(holdouts.begin(), holdouts.end(), net.name) != holdouts.end();
      if (is_holdout) {
        kept.push_back(std::move(net));
      }
    }
    size_t stride = ds.networks.size() / static_cast<size_t>(opts.max_networks) + 1;
    for (size_t i = 0; i < ds.networks.size() && kept.size() < static_cast<size_t>(opts.max_networks);
         i += stride) {
      if (ds.networks[i].ops.empty()) {
        continue;  // already moved out (hold-out)
      }
      kept.push_back(std::move(ds.networks[i]));
    }
    ds.networks = std::move(kept);
    for (size_t i = 0; i < ds.networks.size(); ++i) {
      ds.networks[i].id = static_cast<int>(i);
    }
  }

  // Deduplicate tasks across networks.
  std::unordered_map<std::string, int> sig_to_task;
  for (NetworkDef& net : ds.networks) {
    for (NetworkOp& op : net.ops) {
      std::string sig = TaskSignature(op.task);
      auto it = sig_to_task.find(sig);
      int task_id;
      if (it == sig_to_task.end()) {
        task_id = static_cast<int>(ds.tasks.size());
        sig_to_task.emplace(std::move(sig), task_id);
        TaskInfo info;
        info.task = op.task;
        info.task.id = task_id;
        ds.tasks.push_back(std::move(info));
      } else {
        task_id = it->second;
      }
      op.task.id = task_id;
      TaskInfo& info = ds.tasks[static_cast<size_t>(task_id)];
      if (info.model_ids.empty() || info.model_ids.back() != net.id) {
        info.model_ids.push_back(net.id);
      }
    }
  }

  // 1. Sample every schedule serially, on one rng stream.
  Rng rng(opts.seed);
  for (TaskInfo& info : ds.tasks) {
    for (int s = 0; s < opts.schedules_per_task; ++s) {
      ProgramRecord rec;
      rec.task_id = info.task.id;
      rec.schedule = SampleSchedule(info.task, &rng);
      info.program_indices.push_back(static_cast<int>(ds.programs.size()));
      ds.programs.push_back(std::move(rec));
    }
  }

  std::vector<const DeviceSpec*> specs;
  if (opts.device_ids.empty()) {
    for (const DeviceSpec& spec : DeviceRegistry()) {
      specs.push_back(&spec);
    }
  } else {
    for (int device_id : opts.device_ids) {
      specs.push_back(&DeviceById(device_id));
    }
  }

  // 2. Lower each program once: extract its compact AST and label it on
  // every device. Samples are device-major (sample d * P + p is program p on
  // device d); every iteration writes only its own program's slots, so the
  // result does not depend on the pool size.
  const size_t num_programs = ds.programs.size();
  ds.samples.resize(specs.size() * num_programs);
  ParallelFor(
      0, static_cast<int64_t>(num_programs), ParallelGrain(static_cast<int64_t>(num_programs)),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const size_t p = static_cast<size_t>(i);
          ProgramRecord& rec = ds.programs[p];
          const TensorProgram prog =
              GenerateProgram(ds.tasks[static_cast<size_t>(rec.task_id)].task, rec.schedule);
          rec.ast = ExtractCompactAst(prog);
          for (size_t d = 0; d < specs.size(); ++d) {
            Sample& sample = ds.samples[d * num_programs + p];
            sample.program_index = static_cast<int>(p);
            sample.device_id = specs[d]->id;
            sample.latency_seconds = SimulateLatencyDeterministic(prog, *specs[d]);
          }
        }
      });

  // 3. Multiplicative log-normal measurement noise, drawn serially in
  // storage order from an Rng forked off the schedule stream.
  Rng noise_rng = rng.Fork();
  if (opts.noise_sigma > 0.0) {
    for (Sample& sample : ds.samples) {
      sample.latency_seconds *= noise_rng.LogNormalFactor(opts.noise_sigma);
    }
  }
  return ds;
}

SplitIndices SplitDataset(const Dataset& ds, const std::vector<int>& device_ids,
                          const std::vector<int>& holdout_model_ids, Rng* rng,
                          double train_frac, double valid_frac) {
  CDMPP_CHECK(rng != nullptr);
  CDMPP_CHECK(train_frac + valid_frac <= 1.0);
  SplitIndices split;
  std::vector<int> pool;
  for (size_t i = 0; i < ds.samples.size(); ++i) {
    const Sample& s = ds.samples[i];
    if (!device_ids.empty() &&
        std::find(device_ids.begin(), device_ids.end(), s.device_id) == device_ids.end()) {
      continue;
    }
    if (!holdout_model_ids.empty() && ds.ProgramInModels(s.program_index, holdout_model_ids)) {
      split.holdout.push_back(static_cast<int>(i));
      continue;
    }
    pool.push_back(static_cast<int>(i));
  }
  rng->Shuffle(&pool);
  size_t n_train = static_cast<size_t>(train_frac * static_cast<double>(pool.size()));
  size_t n_valid = static_cast<size_t>(valid_frac * static_cast<double>(pool.size()));
  for (size_t i = 0; i < pool.size(); ++i) {
    if (i < n_train) {
      split.train.push_back(pool[i]);
    } else if (i < n_train + n_valid) {
      split.valid.push_back(pool[i]);
    } else {
      split.test.push_back(pool[i]);
    }
  }
  return split;
}

std::vector<int> SamplesOfModelOnDevice(const Dataset& ds, int model_id, int device_id) {
  std::vector<int> out;
  for (size_t i = 0; i < ds.samples.size(); ++i) {
    const Sample& s = ds.samples[i];
    if (s.device_id != device_id) {
      continue;
    }
    if (ds.ProgramInModels(s.program_index, {model_id})) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::vector<int> SamplesOnDevice(const Dataset& ds, int device_id) {
  std::vector<int> out;
  for (size_t i = 0; i < ds.samples.size(); ++i) {
    if (ds.samples[i].device_id == device_id) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

}  // namespace cdmpp
