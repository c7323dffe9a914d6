// Habitat-style baseline (Yu et al., ATC'21): one MLP per operator kind over
// operator-level features (shapes, not schedules), plus roofline-model
// scaling to transfer predictions from a source GPU to a target GPU.
//
// Two deliberate fidelity-preserving weaknesses from the paper:
//  * operator-level features cannot distinguish different schedules of the
//    same operator, and
//  * roofline scaling only captures peak-flops/bandwidth ratios between
//    devices (GPUs only).
#ifndef SRC_BASELINES_HABITAT_H_
#define SRC_BASELINES_HABITAT_H_

#include <map>
#include <memory>

#include "src/dataset/dataset.h"
#include "src/nn/layers.h"

namespace cdmpp {

struct HabitatConfig {
  int hidden_dim = 48;
  double lr = 2e-3;
  int epochs = 60;
  int batch_size = 64;
  uint64_t seed = 17;
};

class HabitatModel {
 public:
  explicit HabitatModel(const HabitatConfig& config);
  ~HabitatModel();

  // Trains per-op-kind MLPs on samples measured on `source_device`.
  void Fit(const Dataset& ds, const std::vector<int>& train, int source_device);

  // Predicts latency (seconds) on the sample's own device: the source-device
  // MLP prediction, roofline-scaled from source to that device.
  std::vector<double> Predict(const Dataset& ds, const std::vector<int>& indices) const;

  // Predicts one operator task on a device (seconds), roofline-scaled when
  // the device differs from the source device.
  double PredictTask(const Task& task, int device_id) const;

 private:
  static std::vector<float> OpFeatures(const Task& task);
  double RooflineScale(const Task& task, int target_device) const;

  HabitatConfig config_;
  int source_device_ = -1;
  // One trained MLP per op kind seen on the source device; Fit keeps only
  // their parameters.
  std::map<OpKind, std::unique_ptr<Mlp>> per_op_;
  std::unique_ptr<Rng> rng_;
};

}  // namespace cdmpp

#endif  // SRC_BASELINES_HABITAT_H_
