#include "src/baselines/tlp.h"

#include <cmath>

#include "src/nn/optimizer.h"
#include "src/support/check.h"

namespace cdmpp {

namespace {

// Per-primitive-kind count and mean factor, plus task shape digest and
// device features.
constexpr int kPrimFeat = 2 * kNumPrimitiveKinds;
constexpr int kShapeFeat = 8;
constexpr int kTlpFeatDim = kPrimFeat + kShapeFeat + kDeviceFeatDim;

}  // namespace

TlpModel::TlpModel(const TlpConfig& config) : config_(config), rng_(config.seed) {}

std::vector<float> TlpModel::Features(const Dataset& ds, const Sample& s) const {
  std::vector<float> f(kTlpFeatDim, 0.0f);
  const ProgramRecord& rec = ds.programs[static_cast<size_t>(s.program_index)];
  for (const SchedulePrimitive& p : rec.schedule.primitives) {
    int k = static_cast<int>(p.kind);
    f[static_cast<size_t>(2 * k)] += 1.0f;
    f[static_cast<size_t>(2 * k + 1)] += static_cast<float>(std::log1p(std::max(0, p.factor)));
  }
  const Task& task = ds.TaskOfProgram(s.program_index);
  for (size_t i = 0; i < task.dims.size() && i < 7; ++i) {
    f[kPrimFeat + i] = static_cast<float>(std::log1p(static_cast<double>(task.dims[i])));
  }
  f[kPrimFeat + 7] = static_cast<float>(task.kind);
  std::vector<float> dev = ExtractDeviceFeatures(DeviceById(s.device_id));
  for (int j = 0; j < kDeviceFeatDim; ++j) {
    f[static_cast<size_t>(kPrimFeat + kShapeFeat + j)] = dev[static_cast<size_t>(j)];
  }
  return f;
}

void TlpModel::Fit(const Dataset& ds, const std::vector<int>& train) {
  CDMPP_CHECK(!train.empty());
  // Task means over the training samples.
  std::map<int, std::pair<double, int>> acc;
  double total = 0.0;
  for (int idx : train) {
    const Sample& s = ds.samples[static_cast<size_t>(idx)];
    int task_id = ds.programs[static_cast<size_t>(s.program_index)].task_id;
    acc[task_id].first += s.latency_seconds;
    acc[task_id].second += 1;
    total += s.latency_seconds;
  }
  task_mean_seconds_.clear();
  for (const auto& [task_id, sum_count] : acc) {
    task_mean_seconds_[task_id] = sum_count.first / sum_count.second;
  }
  global_mean_seconds_ = total / static_cast<double>(train.size());

  mlp_ = std::make_unique<Mlp>(
      std::vector<int>{kTlpFeatDim, config_.hidden_dim, config_.hidden_dim, 1}, &rng_);
  std::vector<Param*> params;
  mlp_->CollectParams(&params);
  Adam adam(std::move(params), config_.lr);

  std::vector<int> order = train;
  const int n = static_cast<int>(order.size());
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(&order);
    for (int start = 0; start < n; start += config_.batch_size) {
      int b = std::min(config_.batch_size, n - start);
      Matrix x(b, kTlpFeatDim);
      std::vector<float> targets(static_cast<size_t>(b));
      for (int i = 0; i < b; ++i) {
        const Sample& s =
            ds.samples[static_cast<size_t>(order[static_cast<size_t>(start + i)])];
        std::vector<float> f = Features(ds, s);
        for (int j = 0; j < kTlpFeatDim; ++j) {
          x.At(i, j) = f[static_cast<size_t>(j)];
        }
        int task_id = ds.programs[static_cast<size_t>(s.program_index)].task_id;
        double mean = task_mean_seconds_.at(task_id);
        targets[static_cast<size_t>(i)] =
            static_cast<float>(std::log(std::max(1e-6, s.latency_seconds / mean)));
      }
      MseStep(x, targets, mlp_.get(), &adam);
    }
  }
  mlp_->BeginStep(0);  // frees the training caches; Predict reads parameters only
}

std::vector<double> TlpModel::Predict(const Dataset& ds, const std::vector<int>& indices) const {
  CDMPP_CHECK(mlp_ != nullptr);
  std::vector<double> out;
  out.reserve(indices.size());
  Workspace ws;
  for (int idx : indices) {
    ws.Reset();
    const Sample& s = ds.samples[static_cast<size_t>(idx)];
    std::vector<float> f = Features(ds, s);
    Matrix x(1, kTlpFeatDim);
    for (int j = 0; j < kTlpFeatDim; ++j) {
      x.At(0, j) = f[static_cast<size_t>(j)];
    }
    double rel = std::exp(static_cast<double>(mlp_->ForwardInference(x, &ws)->At(0, 0)));
    int task_id = ds.programs[static_cast<size_t>(s.program_index)].task_id;
    auto it = task_mean_seconds_.find(task_id);
    double mean = it != task_mean_seconds_.end() ? it->second : global_mean_seconds_;
    out.push_back(rel * mean);
  }
  return out;
}

}  // namespace cdmpp
