// TLP-style baseline (Zhai et al., ASPLOS'23): featurizes the *schedule
// primitive sequence* (not the program body) and predicts the latency of a
// program *relative* to its task's mean latency. Absolute predictions are
// recovered by multiplying with the task mean measured on the training
// devices — which is exactly why TLP's absolute-time error is large on an
// unseen device (paper §7.3).
#ifndef SRC_BASELINES_TLP_H_
#define SRC_BASELINES_TLP_H_

#include <map>
#include <memory>

#include "src/dataset/dataset.h"
#include "src/nn/layers.h"

namespace cdmpp {

struct TlpConfig {
  int hidden_dim = 64;
  double lr = 2e-3;
  int epochs = 40;
  int batch_size = 64;
  uint64_t seed = 23;
};

class TlpModel {
 public:
  explicit TlpModel(const TlpConfig& config);

  // Trains on the given samples; task means are computed from these samples'
  // devices only.
  void Fit(const Dataset& ds, const std::vector<int>& train);
  // Absolute latency predictions (seconds): relative output x training-task
  // mean (falls back to the global mean for unseen tasks).
  std::vector<double> Predict(const Dataset& ds, const std::vector<int>& indices) const;

 private:
  std::vector<float> Features(const Dataset& ds, const Sample& s) const;

  TlpConfig config_;
  Rng rng_;
  std::unique_ptr<Mlp> mlp_;  // parameters only once Fit returns
  std::map<int, double> task_mean_seconds_;
  double global_mean_seconds_ = 1e-3;
};

}  // namespace cdmpp

#endif  // SRC_BASELINES_TLP_H_
