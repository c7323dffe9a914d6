#include "src/baselines/habitat.h"

#include <cmath>

#include "src/nn/optimizer.h"
#include "src/support/check.h"

namespace cdmpp {

namespace {

constexpr int kOpFeatDim = 10;  // up to 7 log dims + log flops + log bytes + relu flag

}  // namespace

HabitatModel::HabitatModel(const HabitatConfig& config) : config_(config) {
  rng_ = std::make_unique<Rng>(config.seed);
}

HabitatModel::~HabitatModel() = default;

std::vector<float> HabitatModel::OpFeatures(const Task& task) {
  std::vector<float> f(kOpFeatDim, 0.0f);
  for (size_t i = 0; i < task.dims.size() && i < 7; ++i) {
    f[i] = static_cast<float>(std::log1p(static_cast<double>(task.dims[i])));
  }
  f[7] = static_cast<float>(std::log1p(task.Flops()));
  f[8] = static_cast<float>(std::log1p(task.MemoryBytes()));
  f[9] = task.fused_relu ? 1.0f : 0.0f;
  return f;
}

double HabitatModel::RooflineScale(const Task& task, int target_device) const {
  const DeviceSpec& src = DeviceById(source_device_);
  const DeviceSpec& tgt = DeviceById(target_device);
  // Arithmetic intensity decides which peak ratio dominates (Williams'09).
  double intensity = task.Flops() / std::max(1.0, task.MemoryBytes());
  double compute_ratio = src.peak_gflops / tgt.peak_gflops;
  double bandwidth_ratio = src.mem_bw_gbps / tgt.mem_bw_gbps;
  // Smooth interpolation around a knee at intensity ~ peak/bw of the source.
  double knee = src.peak_gflops / src.mem_bw_gbps;
  double w = intensity / (intensity + knee);
  return w * compute_ratio + (1.0 - w) * bandwidth_ratio;
}

void HabitatModel::Fit(const Dataset& ds, const std::vector<int>& train, int source_device) {
  source_device_ = source_device;
  per_op_.clear();
  // Training rows per op kind: op features and log-ms labels. They live for
  // this call only.
  struct Rows {
    std::vector<std::vector<float>> features;
    std::vector<float> log_labels;
  };
  std::map<OpKind, Rows> rows_by_kind;
  for (int idx : train) {
    const Sample& s = ds.samples[static_cast<size_t>(idx)];
    if (s.device_id != source_device) {
      continue;
    }
    const Task& task = ds.TaskOfProgram(s.program_index);
    Rows& rows = rows_by_kind[task.kind];
    rows.features.push_back(OpFeatures(task));
    rows.log_labels.push_back(static_cast<float>(std::log(s.latency_seconds * 1e3 + 1e-9)));
  }

  for (const auto& [kind, rows] : rows_by_kind) {
    auto mlp = std::make_unique<Mlp>(
        std::vector<int>{kOpFeatDim, config_.hidden_dim, config_.hidden_dim, 1}, rng_.get());
    std::vector<Param*> params;
    mlp->CollectParams(&params);
    Adam adam(std::move(params), config_.lr);

    const int n = static_cast<int>(rows.features.size());
    std::vector<int> order(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      order[static_cast<size_t>(i)] = i;
    }
    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
      rng_->Shuffle(&order);
      for (int start = 0; start < n; start += config_.batch_size) {
        int b = std::min(config_.batch_size, n - start);
        Matrix x(b, kOpFeatDim);
        std::vector<float> targets(static_cast<size_t>(b));
        for (int i = 0; i < b; ++i) {
          const size_t row = static_cast<size_t>(order[static_cast<size_t>(start + i)]);
          for (int j = 0; j < kOpFeatDim; ++j) {
            x.At(i, j) = rows.features[row][static_cast<size_t>(j)];
          }
          targets[static_cast<size_t>(i)] = rows.log_labels[row];
        }
        MseStep(x, targets, mlp.get(), &adam);
      }
    }
    mlp->BeginStep(0);  // frees the training caches; prediction reads parameters only
    per_op_[kind] = std::move(mlp);
  }
}

double HabitatModel::PredictTask(const Task& task, int device_id) const {
  CDMPP_CHECK(source_device_ >= 0);
  auto it = per_op_.find(task.kind);
  double pred_ms;
  if (it == per_op_.end()) {
    pred_ms = 1.0;  // unseen op kind: Habitat cannot predict it
  } else {
    std::vector<float> f = OpFeatures(task);
    Matrix x(1, kOpFeatDim);
    for (int j = 0; j < kOpFeatDim; ++j) {
      x.At(0, j) = f[static_cast<size_t>(j)];
    }
    Workspace ws;
    const Matrix* log_ms = it->second->ForwardInference(x, &ws);
    pred_ms = std::exp(static_cast<double>(log_ms->At(0, 0)));
  }
  if (device_id != source_device_) {
    // time_target = time_source * (peak_source / peak_target), blended.
    pred_ms *= RooflineScale(task, device_id);
  }
  return pred_ms / 1e3;
}

std::vector<double> HabitatModel::Predict(const Dataset& ds,
                                          const std::vector<int>& indices) const {
  std::vector<double> out;
  out.reserve(indices.size());
  for (int idx : indices) {
    const Sample& s = ds.samples[static_cast<size_t>(idx)];
    out.push_back(PredictTask(ds.TaskOfProgram(s.program_index), s.device_id));
  }
  return out;
}

}  // namespace cdmpp
